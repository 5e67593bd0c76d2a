#include "obs/run_report.hpp"

#include <cmath>
#include <cstdio>

namespace maopt::obs {

void RunReport::on_run_started(const RunStarted& event) {
  Row row;
  row.algorithm = event.algorithm;
  row.problem = event.problem;
  row.seed = event.seed;
  row.budget = event.simulation_budget;
  rows_.push_back(std::move(row));
}

void RunReport::on_iteration_completed(const IterationCompleted& event) {
  // Tolerate events arriving without a run_started (partial streams).
  if (rows_.empty() || rows_.back().finished) rows_.emplace_back();
  Row& row = rows_.back();
  row.iterations = event.iteration;
  for (const PhaseSpan& span : event.spans)
    row.phase_seconds[static_cast<std::size_t>(span.phase)] += span.seconds;
}

void RunReport::on_run_finished(const RunFinished& event) {
  if (rows_.empty() || rows_.back().finished) rows_.emplace_back();
  Row& row = rows_.back();
  if (row.algorithm.empty()) row.algorithm = event.algorithm;
  row.simulations = event.simulations;
  row.best_fom = event.best_fom;
  row.feasible = event.feasible;
  row.aborted = event.aborted;
  row.wall_seconds = event.wall_seconds;
  row.counters = event.counters;
  if (row.iterations == 0) row.iterations = event.counters.iterations;
  row.finished = true;
}

void RunReport::on_sweep_completed(const SweepCompleted& event) {
  if (rows_.empty() || rows_.back().finished) rows_.emplace_back();
  Row& row = rows_.back();
  row.sweeps += 1;
  row.sweep_variants_ok += event.variants_ok;
  row.sweep_variants_failed += event.variants_failed;
  if (event.degraded) row.sweeps_degraded += 1;
}

std::string RunReport::table() const {
  if (rows_.empty()) return {};
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-12s %5s %5s %5s %6s %5s %5s %5s %12s %5s %9s %9s %8s %8s %8s %8s\n",
                "Algorithm", "sims", "fail", "retry", "iters", "hit", "miss", "coal", "best FoM",
                "feas", "critic(s)", "actor(s)", "sim(s)", "ns(s)", "elite(s)", "wall(s)");
  out += buf;
  for (const Row& r : rows_) {
    std::snprintf(
        buf, sizeof buf,
        "%-12s %5llu %5llu %5llu %6llu %5llu %5llu %5llu %12.4g %5s %9.3f %9.3f %8.3f %8.3f "
        "%8.3f %8.2f%s\n",
        r.algorithm.c_str(), static_cast<unsigned long long>(r.simulations),
        static_cast<unsigned long long>(r.counters.failures),
        static_cast<unsigned long long>(r.counters.retries),
        static_cast<unsigned long long>(r.iterations),
        static_cast<unsigned long long>(r.counters.cache_hits),
        static_cast<unsigned long long>(r.counters.cache_misses),
        static_cast<unsigned long long>(r.counters.cache_coalesced), r.best_fom,
        r.feasible ? "yes" : "no", r.phase(Phase::CriticTrain), r.phase(Phase::ActorTrain),
        r.phase(Phase::Simulate), r.phase(Phase::NearSample), r.phase(Phase::EliteUpdate),
        r.wall_seconds, r.aborted ? "  [ABORTED]" : "");
    out += buf;
  }
  return out;
}

}  // namespace maopt::obs
