#include "gp/bo_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/log.hpp"
#include "gp/acquisition.hpp"

namespace maopt::gp {

core::RunHistory BoOptimizer::do_run(const core::SizingProblem& problem,
                                     const std::vector<core::SimRecord>& initial,
                                     const core::FomEvaluator& fom,
                                     const core::RunOptions& options,
                                     obs::RunTelemetry& telemetry) {
  core::RunHistory history;
  history.algorithm = name();
  history.records = initial;
  history.num_initial = initial.size();
  core::annotate_foms(history.records, problem, fom);

  const std::size_t simulation_budget = options.simulation_budget;
  Rng rng(derive_seed(options.seed, 0xB0));
  const nn::RangeScaler scaler(problem.lower_bounds(), problem.upper_bounds());
  const std::size_t d = problem.dim();

  Stopwatch total;
  GpHyperparams hp;
  int consecutive_failures = 0;
  bool feasible_found = false;
  for (const auto& r : history.records) feasible_found = feasible_found || r.feasible;
  // One iteration = one simulation. GP (re)fitting reports as a CriticTrain
  // span, the EI acquisition search as ActorTrain, evaluation as Simulate.
  for (std::size_t it = 0; it < simulation_budget; ++it) {
    if (options.control != nullptr) {
      const core::RunControl::Signal signal = options.control->poll();
      if (signal == core::RunControl::Signal::Kill) {
        history.aborted = true;
        history.abort_reason = "killed";
        break;
      }
      if (signal == core::RunControl::Signal::Pause) break;
    }
    if (config_.max_consecutive_failures > 0 &&
        consecutive_failures >= config_.max_consecutive_failures) {
      history.aborted = true;
      history.abort_reason = std::to_string(consecutive_failures) +
                             " consecutive failed simulations (circuit breaker)";
      log_warn() << name() << ": aborting run after " << history.abort_reason;
      break;
    }

    // Assemble training data in [0,1]^d from clean simulations only: failed
    // records carry a penalty FoM that is budget bookkeeping, not circuit
    // behaviour the GP should interpolate.
    std::size_t n = 0;
    for (const auto& r : history.records) n += r.simulation_ok ? 1 : 0;
    Mat x(n, d);
    Vec y(n);
    std::size_t row = 0;
    for (const auto& r : history.records) {
      if (!r.simulation_ok) continue;
      const Vec u = scaler.to_unit(r.x);
      for (std::size_t j = 0; j < d; ++j) x(row, j) = 0.5 * (u[j] + 1.0);
      y[row] = config_.log_fom ? std::log10(std::max(r.fom, 1e-12)) : r.fom;
      ++row;
    }

    Stopwatch iter_clock;
    Stopwatch train;
    double fit_s = 0.0;
    double select_s = 0.0;
    Vec next_unit01;
    if (n == 0) {
      // Every simulation so far failed: no surrogate to fit, probe randomly.
      next_unit01.resize(d);
      for (auto& v : next_unit01) v = rng.uniform();
    } else {
      Stopwatch fit_clock;
      if (it % static_cast<std::size_t>(std::max(1, config_.refit_period)) == 0 ||
          hp.lengthscales.empty()) {
        hp = GpRegression::fit_hyperparams(x, y, rng, config_.hyperfit_restarts,
                                           /*isotropic=*/!config_.ard);
        hp.kernel = config_.kernel;
      }
      double best_fom_y = y[0];
      for (const double v : y) best_fom_y = std::min(best_fom_y, v);

      try {
        const GpRegression gp(std::move(x), std::move(y), hp);
        fit_s = fit_clock.elapsed_seconds();
        Stopwatch select_clock;
        next_unit01 = maximize_ei(gp, best_fom_y, d, rng, config_.random_candidates,
                                  config_.local_candidates);
        select_s = select_clock.elapsed_seconds();
      } catch (const std::runtime_error&) {
        // Degenerate kernel matrix: fall back to a random probe.
        fit_s = fit_clock.elapsed_seconds();
        next_unit01.resize(d);
        for (auto& v : next_unit01) v = rng.uniform();
      }
    }
    history.train_seconds += train.elapsed_seconds();

    Vec u(d);
    for (std::size_t j = 0; j < d; ++j) u[j] = 2.0 * next_unit01[j] - 1.0;
    Vec candidate = problem.clip(scaler.from_unit(u));

    core::SimRecord rec = core::evaluate_record(problem, std::move(candidate));
    const double sim_s = rec.seconds;
    history.sim_seconds += sim_s;
    const bool ok = core::annotate_record(rec, problem, fom);
    consecutive_failures = ok ? 0 : consecutive_failures + 1;
    feasible_found = feasible_found || rec.feasible;
    history.records.push_back(std::move(rec));

    // Best-so-far over clean records only; failed sims never improve it.
    double best = std::numeric_limits<double>::infinity();
    bool have_best = false;
    for (const auto& r : history.records) {
      if (!r.simulation_ok) continue;
      best = have_best ? std::min(best, r.fom) : r.fom;
      have_best = true;
    }
    if (!have_best) best = fom(problem.failure_metrics());
    history.best_fom_after.push_back(best);

    emit_simulation(telemetry, history.records.back(), it, it + 1, -1);
    std::vector<obs::PhaseSpan> spans;
    if (telemetry.enabled()) {
      spans.push_back({obs::Phase::CriticTrain, -1, fit_s});
      spans.push_back({obs::Phase::ActorTrain, -1, select_s});
      spans.push_back({obs::Phase::Simulate, -1, sim_s});
    }
    emit_iteration(telemetry, it + 1, history.simulations_used(), best, feasible_found,
                   iter_clock.elapsed_seconds(), std::move(spans));
  }
  history.wall_seconds = total.elapsed_seconds();
  return history;
}

}  // namespace maopt::gp
