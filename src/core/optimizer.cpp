#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include "eval/eval_service.hpp"

namespace maopt::core {

RunHistory Optimizer::run(const SizingProblem& problem, const std::vector<SimRecord>& initial,
                          const FomEvaluator& fom, const RunOptions& options) {
  obs::RunTelemetry telemetry(options.observer);
  emit_run_started(telemetry, name(), problem, initial.size(), options);
  RunHistory history = do_run(problem, initial, fom, options, telemetry);
  emit_run_finished(telemetry, history);
  return history;
}

std::vector<SimRecord> warm_start_records(const eval::EvalService& service,
                                          const std::vector<SimRecord>& initial,
                                          const SizingProblem& problem, const FomEvaluator& fom,
                                          std::size_t max) {
  if (max == 0) return {};

  // Designs already present in the initial set must not be duplicated: a
  // duplicate would bias the critic pseudo-pool toward them for free.
  std::unordered_set<eval::CacheKey, eval::CacheKeyHash> seen;
  seen.reserve(initial.size());
  for (const SimRecord& r : initial)
    seen.insert(eval::make_cache_key(service.fingerprint(), r.x));

  std::vector<SimRecord> warm;
  for (eval::CachedEval& cached : service.cached()) {
    const eval::CacheKey key = eval::make_cache_key(service.fingerprint(), cached.x);
    if (!seen.insert(key).second) continue;
    SimRecord record;
    record.x = std::move(cached.x);
    record.metrics = std::move(cached.metrics);
    record.simulation_ok = true;
    annotate_record(record, problem, fom);
    warm.push_back(std::move(record));
  }
  std::sort(warm.begin(), warm.end(),
            [](const SimRecord& a, const SimRecord& b) { return a.fom < b.fom; });
  if (warm.size() > max) warm.resize(max);
  return warm;
}

void Optimizer::emit_run_started(obs::RunTelemetry& telemetry, const std::string& algorithm,
                                 const SizingProblem& problem, std::size_t num_initial,
                                 const RunOptions& options) {
  if (!telemetry.enabled()) return;
  obs::RunStarted event;
  event.algorithm = algorithm;
  event.problem = problem.spec().name;
  event.seed = options.seed;
  event.simulation_budget = options.simulation_budget;
  event.num_initial = num_initial;
  event.dim = problem.dim();
  telemetry.emit(event);
}

void Optimizer::emit_run_finished(obs::RunTelemetry& telemetry, const RunHistory& history) {
  if (!telemetry.enabled()) return;
  obs::RunCounters& counters = telemetry.counters();
  counters.simulations = history.simulations_used();
  counters.failures = 0;
  for (std::size_t i = history.num_initial; i < history.records.size(); ++i)
    counters.failures += history.records[i].simulation_ok ? 0 : 1;

  obs::RunFinished event;
  event.algorithm = history.algorithm;
  event.simulations = history.simulations_used();
  event.best_fom = history.best_fom_after.empty() ? std::numeric_limits<double>::quiet_NaN()
                                                  : history.best_fom_after.back();
  event.feasible = history.best_feasible() != nullptr;
  event.aborted = history.aborted;
  event.abort_reason = history.abort_reason;
  event.wall_seconds = history.wall_seconds;
  event.counters = counters;
  telemetry.emit(event);
}

void Optimizer::emit_simulation(obs::RunTelemetry& telemetry, const SimRecord& record,
                                std::uint64_t index, std::uint64_t iteration, int lane) {
  if (!telemetry.enabled()) return;
  obs::RunCounters& counters = telemetry.counters();
  counters.retries += record.retries;
  if (record.cache != ckt::CacheOutcome::Uncached)
    ++(record.cache == ckt::CacheOutcome::Hit ? counters.cache_hits : counters.cache_misses);
  if (record.cache == ckt::CacheOutcome::Coalesced) ++counters.cache_coalesced;

  obs::SimulationCompleted event;
  event.index = index;
  event.iteration = iteration;
  event.lane = lane;
  event.ok = record.simulation_ok;
  event.feasible = record.feasible;
  event.fom = record.fom;
  event.seconds = record.seconds;
  event.retries = record.retries;
  event.cache_hit = record.cache == ckt::CacheOutcome::Hit;
  event.coalesced = record.cache == ckt::CacheOutcome::Coalesced;
  if (!record.simulation_ok && record.failure_kind)
    event.failure_kind = ckt::to_string(*record.failure_kind);
  telemetry.emit(event);
}

void Optimizer::emit_iteration(obs::RunTelemetry& telemetry, std::uint64_t iteration,
                               std::size_t simulations_done, double best_fom, bool feasible_found,
                               double wall_seconds, std::vector<obs::PhaseSpan> spans,
                               bool near_sampling, double critic_loss) {
  ++telemetry.counters().iterations;
  if (!telemetry.enabled()) return;
  obs::IterationCompleted event;
  event.iteration = iteration;
  event.simulations_done = simulations_done;
  event.best_fom = best_fom;
  event.feasible_found = feasible_found;
  event.near_sampling = near_sampling;
  event.wall_seconds = wall_seconds;
  event.critic_loss = critic_loss;
  event.spans = std::move(spans);
  telemetry.emit(event);
}

}  // namespace maopt::core
