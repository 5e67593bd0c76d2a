// Typed run-telemetry events (PR 4). Every optimizer run driven through
// core::Optimizer::run emits these through a RunObserver: one RunStarted,
// per-iteration IterationCompleted (with per-phase wall-clock spans, each
// actor reporting into its own lane), one SimulationCompleted per
// budgeted simulation, CheckpointWritten when a snapshot lands on disk, and
// one RunFinished carrying the monotonic counters. The payloads are plain
// data on purpose: observers (JSONL writer, RunReport, user sinks) need no
// knowledge of the optimizer internals, and the events mirror exactly the
// quantities the paper's Section V runtime analysis is built from.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace maopt::obs {

/// The phases of one optimizer iteration (Section III-C cost model). For
/// non-MA optimizers the mapping is: surrogate/GP fitting reports as
/// CriticTrain, candidate selection as ActorTrain, evaluation as Simulate.
enum class Phase : std::uint8_t {
  CriticTrain = 0,  ///< critic / surrogate training (main lane)
  ActorTrain = 1,   ///< per-actor DNN training + candidate selection
  Simulate = 2,     ///< SizingProblem::evaluate
  NearSample = 3,   ///< Algorithm 3 near-sampling scan
  EliteUpdate = 4,  ///< elite-set insertion / bookkeeping
};
inline constexpr std::size_t kNumPhases = 5;

const char* to_string(Phase phase);

/// One timed region. `lane` identifies the reporting thread's role: actor
/// worker i reports into lane i; -1 is the run's driving thread.
struct PhaseSpan {
  Phase phase = Phase::Simulate;
  int lane = -1;
  double seconds = 0.0;
};

/// Monotonic per-run counters, delivered with RunFinished. `simulations` /
/// `failures` cover post-initial simulations only (the budgeted ones).
struct RunCounters {
  std::uint64_t simulations = 0;
  std::uint64_t failures = 0;
  std::uint64_t retries = 0;  ///< ResilientEvaluator retry attempts consumed
  std::uint64_t iterations = 0;
  std::uint64_t ns_iterations = 0;  ///< iterations spent in near-sampling
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  /// Evaluation-service cache totals (eval::EvalService); all zero when the
  /// run is not routed through a service. Invariants:
  ///   cache_hits + cache_misses == simulations (every budgeted request is
  ///   one or the other), cache_coalesced <= cache_misses.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_coalesced = 0;
};

struct RunStarted {
  std::string algorithm;
  std::string problem;
  std::uint64_t seed = 0;
  std::uint64_t simulation_budget = 0;
  std::uint64_t num_initial = 0;
  std::uint64_t dim = 0;
};

/// One budgeted simulation finished (annotated and appended to the history).
struct SimulationCompleted {
  std::uint64_t index = 0;      ///< 0-based post-initial simulation index
  std::uint64_t iteration = 0;  ///< 1-based optimizer iteration it belongs to
  int lane = -1;                ///< actor lane that proposed it; -1 otherwise
  bool ok = false;              ///< SimRecord::simulation_ok after scrubbing
  bool feasible = false;
  double fom = 0.0;          ///< annotated FoM (penalty FoM when !ok)
  double seconds = 0.0;      ///< wall-clock spent inside evaluate
  std::uint32_t retries = 0; ///< ResilientEvaluator retries for this call
  std::string failure_kind;  ///< ckt::to_string(FailureKind); empty when ok
                             ///< or the problem reports no failure detail
  bool cache_hit = false;    ///< served from the eval-service result cache
  bool coalesced = false;    ///< shared a concurrent request's simulation
};

struct IterationCompleted {
  std::uint64_t iteration = 0;  ///< 1-based
  std::uint64_t simulations_done = 0;
  double best_fom = 0.0;  ///< running best (trajectory semantics)
  bool feasible_found = false;
  bool near_sampling = false;  ///< iteration ran Algorithm 3 instead of 1
  double wall_seconds = 0.0;   ///< this iteration's wall clock
  /// Mean critic MSE (normalized units) of this iteration's training round;
  /// NaN (JSON null) when the iteration trained no critic.
  double critic_loss = std::numeric_limits<double>::quiet_NaN();
  std::vector<PhaseSpan> spans;
};

struct CheckpointWritten {
  std::string path;
  std::uint64_t iteration = 0;
  std::uint64_t simulations_done = 0;
  std::uint64_t bytes = 0;
};

/// One corner / Monte Carlo sweep opening (circuits/variation_sweep.hpp).
/// Sweep events are bracketed: every SweepStarted is followed by exactly
/// `variants` SweepVariantEvaluated events and one SweepCompleted with the
/// same sweep_id, with no events of another sweep interleaved (the engine
/// buffers and emits the whole bracket atomically at sweep end, so the
/// guarantee holds even when sweeps for different designs run concurrently).
struct SweepStarted {
  std::uint64_t sweep_id = 0;  ///< unique per engine instance, monotonic
  std::string kind;            ///< "corners" or "monte-carlo"
  std::string aggregation;     ///< to_string(RobustAggregation)
  std::uint64_t variants = 0;  ///< sweep width (corners or MC instances)
};

/// One variant of a sweep finished: ok = usable metrics, otherwise failed.
struct SweepVariantEvaluated {
  std::uint64_t sweep_id = 0;
  std::uint64_t variant = 0;  ///< 0-based index within the sweep
  std::string label;          ///< corner name ("ss") or MC tag ("mc17")
  bool ok = false;
  double fom0 = 0.0;     ///< metrics[0] of the variant (0 when not ok)
  double seconds = 0.0;  ///< wall-clock of this variant's evaluation
};

/// Sweep closing bracket: tallies plus the failure-policy provenance that
/// also lands in the aggregate EvalResult.
struct SweepCompleted {
  std::uint64_t sweep_id = 0;
  std::uint64_t variants_ok = 0;
  std::uint64_t variants_failed = 0;
  bool degraded = false;  ///< a partial-failure policy shaped the aggregate
  std::string policy;     ///< to_string(SweepFailurePolicy) in force
  double seconds = 0.0;   ///< wall-clock of the whole sweep
};

struct RunFinished {
  std::string algorithm;
  std::uint64_t simulations = 0;  ///< post-initial simulations performed
  double best_fom = 0.0;          ///< final trajectory value (NaN if none)
  bool feasible = false;          ///< a spec-meeting design was found
  bool aborted = false;
  std::string abort_reason;
  double wall_seconds = 0.0;
  RunCounters counters;
};

/// Daemon job lifecycle (serve::OptDaemon). Unlike run brackets, job
/// brackets of different jobs MAY interleave in one stream — jobs are
/// concurrent by design; `job_id` is the correlation key. Each job emits one
/// JobSubmitted, a chain of JobStateChanged whose `from` continues the
/// previous `to`, and one terminal JobFinished.
struct JobSubmitted {
  std::uint64_t job_id = 0;  ///< unique per daemon instance, monotonic
  std::string name;          ///< caller-chosen job name (unique among live jobs)
  std::string tenant;
  std::string problem;    ///< registered problem name the job optimizes
  std::string algorithm;  ///< optimizer roster name ("MA-Opt", "Random", ...)
  std::uint64_t seed = 0;
  std::uint64_t simulation_budget = 0;
};

struct JobStateChanged {
  std::uint64_t job_id = 0;
  std::string name;
  std::string from;  ///< serve::to_string(JobState)
  std::string to;
  std::string reason;  ///< operator-facing cause ("pause requested", ...)
};

/// Terminal job bracket: final state plus the job's run-level totals
/// (carried per job so a multi-job stream stays attributable).
struct JobFinished {
  std::uint64_t job_id = 0;
  std::string name;
  std::string tenant;
  std::string state;              ///< "done" | "failed" | "killed"
  std::uint64_t simulations = 0;  ///< budgeted simulations the job consumed
  double best_fom = 0.0;          ///< NaN when the job never produced one
  bool feasible = false;
  double wall_seconds = 0.0;  ///< job wall-clock across all running segments
  RunCounters counters;       ///< last run segment's counters
};

}  // namespace maopt::obs
