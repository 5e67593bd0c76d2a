#include "core/random_search.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace maopt::core {

RunHistory RandomSearch::do_run(const SizingProblem& problem,
                                const std::vector<SimRecord>& initial, const FomEvaluator& fom,
                                const RunOptions& options, obs::RunTelemetry& telemetry) {
  RunHistory history;
  history.algorithm = name();
  history.records = initial;
  history.num_initial = initial.size();
  annotate_foms(history.records, problem, fom);

  Rng rng(derive_seed(options.seed, 0x7A));
  Stopwatch total;
  double best = 1e300;
  bool feasible_found = false;
  for (const auto& r : history.records) {
    best = std::min(best, r.fom);
    feasible_found = feasible_found || r.feasible;
  }

  // Every simulation is its own iteration: there is no training phase, so
  // the iteration event carries a single Simulate span.
  for (std::size_t i = 0; i < options.simulation_budget; ++i) {
    if (options.control != nullptr) {
      const RunControl::Signal signal = options.control->poll();
      if (signal == RunControl::Signal::Kill) {
        history.aborted = true;
        history.abort_reason = "killed";
        break;
      }
      if (signal == RunControl::Signal::Pause) break;
    }
    SimRecord rec = evaluate_record(problem, problem.random_design(rng));
    const double sim_s = rec.seconds;
    history.sim_seconds += sim_s;
    annotate_record(rec, problem, fom);
    best = std::min(best, rec.fom);
    feasible_found = feasible_found || rec.feasible;
    history.records.push_back(std::move(rec));
    history.best_fom_after.push_back(best);

    emit_simulation(telemetry, history.records.back(), i, i + 1, -1);
    std::vector<obs::PhaseSpan> spans;
    if (telemetry.enabled()) spans.push_back({obs::Phase::Simulate, -1, sim_s});
    emit_iteration(telemetry, i + 1, i + 1, best, feasible_found, sim_s, std::move(spans));
  }
  history.wall_seconds = total.elapsed_seconds();
  return history;
}

}  // namespace maopt::core
