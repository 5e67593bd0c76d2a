#include "core/pso.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace maopt::core {

RunHistory PsoOptimizer::do_run(const SizingProblem& problem,
                                const std::vector<SimRecord>& initial, const FomEvaluator& fom,
                                const RunOptions& options, obs::RunTelemetry& telemetry) {
  RunHistory history;
  history.algorithm = name();
  history.records = initial;
  history.num_initial = initial.size();
  annotate_foms(history.records, problem, fom);

  Rng rng(derive_seed(options.seed, 0x9507));
  const std::size_t d = problem.dim();
  const Vec& lo = problem.lower_bounds();
  const Vec& hi = problem.upper_bounds();
  const std::size_t simulation_budget = options.simulation_budget;

  // Seed the swarm with the best initial designs (fill with random if the
  // initial set is smaller than the swarm).
  std::vector<const SimRecord*> sorted;
  for (const auto& r : history.records) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const SimRecord* a, const SimRecord* b) { return a->fom < b->fom; });

  const std::size_t n = config_.swarm_size;
  std::vector<Vec> pos(n), vel(n, Vec(d, 0.0)), pbest(n);
  std::vector<double> pbest_fom(n);
  Vec gbest;
  double gbest_fom = 1e300;
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = i < sorted.size() ? sorted[i]->x : problem.random_design(rng);
    pbest[i] = pos[i];
    pbest_fom[i] = i < sorted.size() ? sorted[i]->fom : 1e300;
    if (pbest_fom[i] < gbest_fom) {
      gbest_fom = pbest_fom[i];
      gbest = pbest[i];
    }
  }

  Stopwatch total;
  double best = gbest_fom;
  bool feasible_found = false;
  for (const auto& r : history.records) feasible_found = feasible_found || r.feasible;
  std::size_t sims = 0;
  std::uint64_t iteration = 0;
  // One iteration = one sweep over the swarm; the velocity/position updates
  // report as an ActorTrain span (candidate selection), evaluations as
  // per-simulation Simulate spans.
  while (sims < simulation_budget) {
    if (options.control != nullptr) {
      const RunControl::Signal signal = options.control->poll();
      if (signal == RunControl::Signal::Kill) {
        history.aborted = true;
        history.abort_reason = "killed";
        break;
      }
      if (signal == RunControl::Signal::Pause) break;
    }
    ++iteration;
    Stopwatch iter_clock;
    std::vector<obs::PhaseSpan> spans;
    double select_s = 0.0;
    for (std::size_t i = 0; i < n && sims < simulation_budget; ++i) {
      Stopwatch select;
      // Velocity / position update with per-dimension velocity clamp.
      for (std::size_t c = 0; c < d; ++c) {
        const double span = hi[c] - lo[c];
        const double vmax = config_.v_max_frac * span;
        double v = config_.inertia * vel[i][c] +
                   config_.cognitive * rng.uniform() * (pbest[i][c] - pos[i][c]) +
                   config_.social * rng.uniform() * (gbest[c] - pos[i][c]);
        vel[i][c] = std::clamp(v, -vmax, vmax);
        pos[i][c] = pos[i][c] + vel[i][c];
      }
      pos[i] = problem.clip(std::move(pos[i]));
      select_s += select.elapsed_seconds();

      SimRecord rec = evaluate_record(problem, pos[i]);
      const double sim_s = rec.seconds;
      history.sim_seconds += sim_s;
      annotate_record(rec, problem, fom);

      if (rec.fom < pbest_fom[i]) {
        pbest_fom[i] = rec.fom;
        pbest[i] = rec.x;
      }
      if (rec.fom < gbest_fom) {
        gbest_fom = rec.fom;
        gbest = rec.x;
      }
      best = std::min(best, rec.fom);
      feasible_found = feasible_found || rec.feasible;
      history.records.push_back(std::move(rec));
      history.best_fom_after.push_back(best);
      emit_simulation(telemetry, history.records.back(), sims, iteration, -1);
      if (telemetry.enabled()) spans.push_back({obs::Phase::Simulate, -1, sim_s});
      ++sims;
    }
    if (telemetry.enabled()) spans.push_back({obs::Phase::ActorTrain, -1, select_s});
    emit_iteration(telemetry, iteration, sims, best, feasible_found,
                   iter_clock.elapsed_seconds(), std::move(spans));
  }
  history.wall_seconds = total.elapsed_seconds();
  return history;
}

}  // namespace maopt::core
