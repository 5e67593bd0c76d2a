// The unified optimizer-facing run API (PR 4). Every optimizer — MaOptimizer
// (DNN-Opt / MA-Opt variants), BoOptimizer, DeOptimizer, PsoOptimizer,
// RandomSearch — is driven through Optimizer::run(problem, initial, fom,
// RunOptions) and instrumented through the obs:: telemetry layer behind it:
// the non-virtual entry point emits RunStarted / RunFinished around the
// optimizer-specific loop, which reports IterationCompleted /
// SimulationCompleted / CheckpointWritten as it goes. With no observer
// attached the instrumentation reduces to a branch on a null pointer.
#pragma once

#include <limits>

#include "core/history.hpp"
#include "obs/observer.hpp"

namespace maopt::eval {
class EvalService;
}

namespace maopt::core {

/// Cooperative run control: an external party (serve::OptDaemon, a signal
/// handler, a test) raises Pause or Kill and the optimizer loop observes it
/// at its next iteration boundary. poll() must be thread-safe — it is called
/// from the run's driving thread while the signal is raised from another.
/// Semantics at a yield point:
///   Pause — stop cleanly; MaOptimizer writes a checkpoint first (when
///           checkpoint_path is set) so the run can resume bit-identically.
///           The history is NOT marked aborted: the run is suspended, and
///           pause is deferred while a checkpoint replay is in progress
///           (pausing mid-replay would re-checkpoint a prefix).
///   Kill  — stop immediately; the history is marked aborted with reason
///           "killed".
/// Signals are level-triggered: poll() keeps returning the raised signal
/// until the controller clears it.
class RunControl {
 public:
  enum class Signal { None, Pause, Kill };

  RunControl() = default;
  RunControl(const RunControl&) = default;
  RunControl& operator=(const RunControl&) = default;
  RunControl(RunControl&&) = default;
  RunControl& operator=(RunControl&&) = default;
  virtual ~RunControl() = default;

  virtual Signal poll() = 0;
};

/// Per-run parameters for Optimizer::run. Aggregates what used to be loose
/// (seed, budget) trailing arguments so adding a knob no longer churns every
/// optimizer signature.
struct RunOptions {
  std::uint64_t seed = 0;
  std::size_t simulation_budget = 0;
  /// Telemetry sink; not owned, may be nullptr (disables all emission).
  obs::RunObserver* observer = nullptr;
  /// Cooperative pause/kill signal source; not owned, may be nullptr (the
  /// run is then uninterruptible). Polled once per optimizer iteration.
  RunControl* control = nullptr;
};

/// Abstract optimizer: consumes a pre-evaluated initial set and a simulation
/// budget, produces the full run history. Implementations: MaOptimizer
/// (DNN-Opt / MA-Opt variants), BoOptimizer, DeOptimizer, PsoOptimizer,
/// RandomSearch.
class Optimizer {
 public:
  Optimizer() = default;
  Optimizer(const Optimizer&) = default;
  Optimizer& operator=(const Optimizer&) = default;
  Optimizer(Optimizer&&) = default;
  Optimizer& operator=(Optimizer&&) = default;
  virtual ~Optimizer() = default;

  virtual std::string name() const = 0;

  /// The single entry point: brackets the optimizer-specific loop with
  /// RunStarted / RunFinished and threads options.observer through it.
  RunHistory run(const SizingProblem& problem, const std::vector<SimRecord>& initial,
                 const FomEvaluator& fom, const RunOptions& options);

 protected:
  /// Optimizer-specific loop. Implementations emit IterationCompleted /
  /// SimulationCompleted / CheckpointWritten through `telemetry` and bump
  /// the counters the base class cannot see (iterations, ns_iterations,
  /// retries, checkpoints); simulations / failures / RunStarted /
  /// RunFinished are handled by the caller.
  virtual RunHistory do_run(const SizingProblem& problem, const std::vector<SimRecord>& initial,
                            const FomEvaluator& fom, const RunOptions& options,
                            obs::RunTelemetry& telemetry) = 0;

  /// RunStarted / RunFinished bracketing, factored out so instrumented
  /// side entries (MaOptimizer::resume) reuse the exact run() semantics.
  static void emit_run_started(obs::RunTelemetry& telemetry, const std::string& algorithm,
                               const SizingProblem& problem, std::size_t num_initial,
                               const RunOptions& options);
  static void emit_run_finished(obs::RunTelemetry& telemetry, const RunHistory& history);

  /// Emits SimulationCompleted for `record`, whose provenance fields (the
  /// EvalResult's retries, failure kind, cache outcome and seconds) fill the
  /// event and the retry / cache counters. No-op without an observer.
  static void emit_simulation(obs::RunTelemetry& telemetry, const SimRecord& record,
                              std::uint64_t index, std::uint64_t iteration, int lane);

  /// Bumps the iteration counter and emits IterationCompleted; `spans` is
  /// consumed. The event itself is skipped without an observer. Only
  /// MA-Opt runs near-sampling iterations or trains a critic.
  static void emit_iteration(obs::RunTelemetry& telemetry, std::uint64_t iteration,
                             std::size_t simulations_done, double best_fom, bool feasible_found,
                             double wall_seconds, std::vector<obs::PhaseSpan> spans,
                             bool near_sampling = false,
                             double critic_loss = std::numeric_limits<double>::quiet_NaN());
};

/// Warm start: the cached prior-run results of `service`, annotated against
/// `problem` with `fom`, deduplicated against `initial`, sorted best FoM
/// first and capped at `max`. Callers append them to their initial set; they
/// count as initial samples, so the simulation budget is unchanged and the
/// warm run starts from strictly more information at the same cost.
std::vector<SimRecord> warm_start_records(const eval::EvalService& service,
                                          const std::vector<SimRecord>& initial,
                                          const SizingProblem& problem, const FomEvaluator& fom,
                                          std::size_t max);

}  // namespace maopt::core
