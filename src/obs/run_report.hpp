// In-memory telemetry aggregator: one Row per observed run, accumulating
// per-phase seconds (summed over lanes) and the run counters, and rendering
// the EXPERIMENTS.md-style summary table the bench harnesses print. Attach
// one RunReport across several sequential runs (e.g. a whole optimizer
// roster) to get one table row per run.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "obs/observer.hpp"

namespace maopt::obs {

class RunReport final : public RunObserver {
 public:
  struct Row {
    std::string algorithm;
    std::string problem;
    std::uint64_t seed = 0;
    std::uint64_t budget = 0;
    std::uint64_t simulations = 0;
    std::uint64_t iterations = 0;
    double best_fom = 0.0;
    bool feasible = false;
    bool aborted = false;
    double wall_seconds = 0.0;
    /// Wall-clock seconds per Phase, indexed by static_cast<size_t>(Phase),
    /// summed over lanes. MA-Opt's actors train in one lockstep round and
    /// each actor's span carries that round's wall time, so actor-train
    /// reads N_act times the rounds' wall time.
    std::array<double, kNumPhases> phase_seconds{};
    RunCounters counters;
    /// Sweep tallies (corner / Monte Carlo brackets observed on this row);
    /// all zero for runs that never routed through a sweep engine.
    std::uint64_t sweeps = 0;
    std::uint64_t sweep_variants_ok = 0;
    std::uint64_t sweep_variants_failed = 0;
    std::uint64_t sweeps_degraded = 0;
    bool finished = false;  ///< run_finished arrived (row is complete)

    double phase(Phase p) const { return phase_seconds[static_cast<std::size_t>(p)]; }
  };

  const std::vector<Row>& rows() const { return rows_; }

  /// Renders the summary table (one line per run); empty string when no runs
  /// were observed.
  std::string table() const;

  void on_run_started(const RunStarted& event) override;
  void on_iteration_completed(const IterationCompleted& event) override;
  void on_run_finished(const RunFinished& event) override;
  void on_sweep_completed(const SweepCompleted& event) override;

 private:
  std::vector<Row> rows_;
};

}  // namespace maopt::obs
