// OptDaemon — optimization-as-a-service over one shared evaluation backend.
//
// A long-running in-process daemon that owns one worker pool and one
// FairShareScheduler, builds a ServiceStack (EvalService, optionally behind
// a ResilientEvaluator) per registered problem, and multiplexes many named
// optimization *jobs* over them. Each job runs on its own driving thread but
// every simulation funnels through the shared pool under the scheduler's
// admission gate, so N concurrent jobs contend for one set of simulator
// workers with weighted fair sharing instead of oversubscribing the machine.
//
// Job lifecycle (states in JobState):
//
//                    submit            pause              resume
//   Pending ----> Running ----> Pausing ----> Paused ----> Running ...
//                    |                            |
//                    | kill / budget / error      | kill
//                    v                            v
//            Killed / Done / Failed            Killed
//
// Pause is cooperative: the job's RunControl raises Pause, the optimizer
// checkpoints at its next iteration boundary (MA-family only — the other
// optimizers are not checkpointable) and the thread vacates the scheduler.
// Resume replays the checkpoint bit-identically (MaOptimizer::resume), so a
// paused+resumed job reproduces the uninterrupted trajectory exactly.
//
// Tenancy: every job belongs to a tenant. A tenant gets (a) a fair-share
// weight in the scheduler and (b) a private ResultCache namespace per
// problem (journal under work_dir/tenants/<tenant>/<problem>), while the
// in-flight dedup layer stays shared — two tenants asking for the same
// design still share one simulation, and each records the result in its own
// journal.
//
// Telemetry: the daemon-level observer receives ONLY job-scoped events
// (JobSubmitted / JobStateChanged / JobFinished) — concurrent jobs would
// interleave run-scoped brackets illegally in one stream. Per-run events go
// to each job's own JSONL sink (JobSpec::jsonl_path).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/history.hpp"
#include "obs/observer.hpp"
#include "serve/scheduler.hpp"
#include "serve/service_stack.hpp"

namespace maopt::serve {

enum class JobState {
  Pending,   ///< submitted, worker thread not yet running
  Running,   ///< optimizer loop in progress
  Pausing,   ///< pause requested, waiting for the next yield point
  Paused,    ///< checkpointed and vacated; resumable
  Killing,   ///< kill requested, waiting for the next yield point
  Done,      ///< full simulation budget spent
  Failed,    ///< optimizer aborted (breaker) or worker threw
  Killed,    ///< terminated by kill()
};

const char* to_string(JobState state);

/// True for states with (or about to have) a live worker thread.
bool is_active(JobState state);
/// True for states a job can never leave.
bool is_terminal(JobState state);

/// Everything needed to run one optimization as a job. `problem` must name a
/// problem previously added via OptDaemon::add_problem; `algorithm` is one
/// of "MA-Opt", "MA-Opt1", "MA-Opt2", "DNN-Opt" (checkpointable / pausable)
/// or "Random", "PSO", "DE", "BO" (not pausable).
struct JobSpec {
  std::string name;              ///< unique job id (also the checkpoint stem)
  std::string tenant;            ///< fair-share + cache namespace ("" = default)
  std::string problem;           ///< registered problem name
  /// Deck submission: when non-empty, submit() compiles this SPICE deck (plus
  /// `spec_path`, or the deck's sibling .spec file) into a DeckProblem and
  /// registers it under `problem` (defaulting to the deck's file stem) unless
  /// a problem of that name already exists — so re-submitting the same deck
  /// reuses the warm ServiceStack and its result cache.
  std::string deck_path;
  std::string spec_path;         ///< deck spec file; empty = deck path with .spec
  std::string algorithm = "MA-Opt";
  std::uint64_t seed = 1;
  std::size_t simulation_budget = 100;
  std::size_t initial_samples = 40;  ///< X_init size sampled before the loop
  int checkpoint_every = 0;          ///< periodic snapshots; 0 = only on pause
  std::string jsonl_path;            ///< per-job run-event stream; empty = none
  /// Start from work_dir/<name>.ckpt instead of a fresh initial set — how a
  /// restarted daemon picks a previous daemon's paused job back up (MA-family
  /// only; submit() rejects it for non-checkpointable algorithms).
  bool resume_from_checkpoint = false;
};

/// Point-in-time view of a job, safe to read while it runs.
struct JobStatus {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::Pending;
  std::uint64_t simulations = 0;  ///< post-initial simulations so far
  double best_fom = 0.0;
  bool feasible = false;
  double wall_seconds = 0.0;  ///< summed across run segments
  std::string error;          ///< abort reason / exception text when Failed
  obs::RunCounters counters;  ///< accumulated across run segments
};

struct DaemonConfig {
  /// Root for daemon state: checkpoints (work_dir/<job>.ckpt) and tenant
  /// journals (work_dir/tenants/<tenant>/<problem>/). Created on demand.
  std::string work_dir = "maopt_daemon";
  std::size_t num_threads = 0;  ///< shared simulator pool width; 0 = hardware
  /// Per-problem service template. The daemon points shared_pool at its own
  /// pool (so num_threads here is unused) and, when cache_dir is empty, uses
  /// work_dir/cache/<problem>. Validated when a problem is added.
  eval::EvalServiceConfig service;
  /// Wrap every problem in a ResilientEvaluator with this config; none = bare.
  std::optional<ckt::ResilientConfig> resilient;
  SchedulerConfig scheduler;    ///< fair-share admission knobs
  /// Job-event sink (JobSubmitted / JobStateChanged / JobFinished); not
  /// owned, may be null, must outlive the daemon.
  obs::RunObserver* observer = nullptr;
};

class OptDaemon {
 public:
  explicit OptDaemon(DaemonConfig config = {});
  /// Kills every active job and joins all worker threads.
  ~OptDaemon();

  OptDaemon(const OptDaemon&) = delete;
  OptDaemon& operator=(const OptDaemon&) = delete;

  /// Registers a problem under `name`. Not owned; must outlive the daemon.
  /// Builds the problem's ServiceStack immediately (every known tenant's
  /// namespace is registered on it). Throws on a duplicate name.
  void add_problem(const std::string& name, const ckt::SizingProblem& problem);

  /// Compiles `deck_path` (+ `spec_path`, or the deck's sibling .spec when
  /// empty) into a DeckProblem owned by the daemon and registers it like
  /// add_problem. Throws spice::ParseError / std::invalid_argument when the
  /// deck does not compile, std::invalid_argument on a duplicate name.
  void add_deck(const std::string& name, const std::string& deck_path,
                const std::string& spec_path = "");

  /// Registers a tenant: scheduler weight + a private cache namespace on
  /// every problem stack. Idempotent (re-registering updates the weight).
  void register_tenant(const std::string& name, double weight = 1.0);

  /// Validates the spec, emits JobSubmitted, and starts the job's worker
  /// thread. Throws std::invalid_argument on an unknown problem/algorithm or
  /// duplicate job name. Returns the job id.
  std::uint64_t submit(const JobSpec& spec);

  /// Requests a cooperative pause (checkpoint + vacate). False when the job
  /// is unknown, not running, or not checkpointable (non-MA algorithms).
  bool pause(const std::string& name);

  /// Restarts a Paused job from its checkpoint (bit-identical replay, then
  /// live until the budget). False when the job is unknown or not paused.
  bool resume(const std::string& name);

  /// Requests termination. Running jobs stop at the next yield point; a
  /// Paused job is killed in place. False when unknown or already terminal.
  bool kill(const std::string& name);

  /// Blocks until the job leaves the active states (Paused counts as
  /// stopped, like a shell's fg returning on Ctrl-Z). Throws on unknown name.
  JobStatus wait(const std::string& name);

  /// Snapshot of one job / all jobs (sorted by id). Throws on unknown name.
  JobStatus status(const std::string& name) const;
  std::vector<JobStatus> jobs() const;

  FairShareScheduler& scheduler() { return scheduler_; }
  /// The shared evaluation service of a registered problem (for warm-start
  /// inspection and tests). Throws on unknown name.
  eval::EvalService& service(const std::string& problem);

  const DaemonConfig& config() const { return config_; }

 private:
  struct Job;

  Job* find_job(const std::string& name) const MAOPT_REQUIRES(mutex_);
  JobStatus status_locked(const Job& job) const MAOPT_REQUIRES(mutex_);
  /// Single choke point for state transitions: updates the state and emits
  /// JobStateChanged while still holding mutex_, so event order always
  /// matches transition order (from == previous to).
  void set_state(Job& job, JobState to, const std::string& reason) MAOPT_REQUIRES(mutex_);
  void emit_finished(Job& job) MAOPT_REQUIRES(mutex_);

  /// Worker-thread body: runs one segment (fresh or resumed) and records the
  /// outcome. Exceptions become Failed.
  void worker(Job* job, bool resuming);
  void run_segment(Job& job, bool resuming);

  struct ProblemEntry {
    const ckt::SizingProblem* problem = nullptr;
    /// Set for deck-compiled problems: the daemon owns them (user-registered
    /// problems stay caller-owned). Declared before `stack` so the stack —
    /// which references the problem — is destroyed first.
    std::unique_ptr<const ckt::SizingProblem> owned;
    std::unique_ptr<ServiceStack> stack;
  };

  /// Shared registration path: builds the ServiceStack and installs the
  /// entry. `owned` may be null (caller-owned problem). With
  /// `reuse_existing`, a duplicate name silently keeps the existing entry
  /// (how concurrent deck submits coalesce) instead of throwing.
  void add_problem_locked(const std::string& name, const ckt::SizingProblem& problem,
                          std::unique_ptr<const ckt::SizingProblem> owned, bool reuse_existing)
      MAOPT_REQUIRES(mutex_);

  DaemonConfig config_;
  std::unique_ptr<ThreadPool> pool_;  ///< shared simulator workers
  FairShareScheduler scheduler_;

  /// Lock hierarchy (DESIGN.md section 10): mutex_ sits above every lock it
  /// reaches — MulticastObserver::mutex_ / JsonlObserver::io_mutex_ (job
  /// events are emitted under it so event order matches transition order),
  /// FairShareScheduler::mutex_ (weight updates only — never a blocking
  /// acquire), and EvalService::tenants_mutex_ (namespace registration). It
  /// is never held while joining a worker thread or running a segment.
  mutable Mutex mutex_;
  CondVar state_cv_;  ///< signaled on every state transition
  std::map<std::string, ProblemEntry> problems_ MAOPT_GUARDED_BY(mutex_);
  std::map<std::string, double> tenants_ MAOPT_GUARDED_BY(mutex_);  ///< name -> weight
  std::map<std::string, std::unique_ptr<Job>> jobs_ MAOPT_GUARDED_BY(mutex_);
  std::uint64_t next_job_id_ MAOPT_GUARDED_BY(mutex_) = 1;
};

}  // namespace maopt::serve
