#include "core/de.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace maopt::core {

RunHistory DeOptimizer::do_run(const SizingProblem& problem,
                               const std::vector<SimRecord>& initial, const FomEvaluator& fom,
                               const RunOptions& options, obs::RunTelemetry& telemetry) {
  RunHistory history;
  history.algorithm = name();
  history.records = initial;
  history.num_initial = initial.size();
  annotate_foms(history.records, problem, fom);

  Rng rng(derive_seed(options.seed, 0xDE01));
  const std::size_t d = problem.dim();
  const std::size_t simulation_budget = options.simulation_budget;

  std::vector<const SimRecord*> sorted;
  for (const auto& r : history.records) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const SimRecord* a, const SimRecord* b) { return a->fom < b->fom; });

  const std::size_t np = std::max<std::size_t>(4, config_.population);
  std::vector<Vec> pop(np);
  std::vector<double> pop_fom(np);
  double best = 1e300;
  for (std::size_t i = 0; i < np; ++i) {
    if (i < sorted.size()) {
      pop[i] = sorted[i]->x;
      pop_fom[i] = sorted[i]->fom;
    } else {
      pop[i] = problem.random_design(rng);
      pop_fom[i] = 1e300;  // unevaluated filler loses its first selection
    }
    best = std::min(best, pop_fom[i]);
  }

  Stopwatch total;
  bool feasible_found = false;
  for (const auto& r : history.records) feasible_found = feasible_found || r.feasible;
  std::size_t sims = 0;
  std::uint64_t iteration = 0;
  // One iteration = one generation; mutation/crossover reports as an
  // ActorTrain span (candidate selection), evaluations as Simulate spans.
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
    for (std::size_t i = 0; i < np && sims < simulation_budget; ++i) {
      Stopwatch select;
      // Mutation: three distinct partners, none equal to i.
      std::size_t a, b, c;
      do a = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(np) - 1));
      while (a == i);
      do b = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(np) - 1));
      while (b == i || b == a);
      do c = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(np) - 1));
      while (c == i || c == a || c == b);

      // Binomial crossover with a guaranteed mutated coordinate.
      Vec trial = pop[i];
      const auto forced = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(d) - 1));
      for (std::size_t k = 0; k < d; ++k)
        if (k == forced || rng.uniform() < config_.cr)
          trial[k] = pop[a][k] + config_.f * (pop[b][k] - pop[c][k]);
      trial = problem.clip(std::move(trial));
      select_s += select.elapsed_seconds();

      SimRecord rec = evaluate_record(problem, std::move(trial));
      const double sim_s = rec.seconds;
      history.sim_seconds += sim_s;
      annotate_record(rec, problem, fom);

      if (rec.fom < pop_fom[i]) {  // greedy selection
        pop_fom[i] = rec.fom;
        pop[i] = rec.x;
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
