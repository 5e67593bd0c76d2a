#include "serve/daemon.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/de.hpp"
#include "deck/deck_problem.hpp"
#include "core/history_io.hpp"
#include "core/ma_optimizer.hpp"
#include "core/pso.hpp"
#include "core/random_search.hpp"
#include "gp/bo_optimizer.hpp"
#include "obs/jsonl_writer.hpp"

namespace maopt::serve {

namespace {

bool is_ma_family(const std::string& algorithm) {
  return algorithm == "MA-Opt" || algorithm == "MA-Opt1" || algorithm == "MA-Opt2" ||
         algorithm == "DNN-Opt";
}

bool known_algorithm(const std::string& algorithm) {
  return is_ma_family(algorithm) || algorithm == "Random" || algorithm == "PSO" ||
         algorithm == "DE" || algorithm == "BO";
}

core::MaOptConfig ma_config_for(const JobSpec& spec, const std::string& checkpoint_path) {
  core::MaOptConfig config;
  if (spec.algorithm == "DNN-Opt")
    config = core::MaOptConfig::dnn_opt();
  else if (spec.algorithm == "MA-Opt1")
    config = core::MaOptConfig::ma_opt1();
  else if (spec.algorithm == "MA-Opt2")
    config = core::MaOptConfig::ma_opt2();
  else
    config = core::MaOptConfig::ma_opt();
  config.checkpoint_path = checkpoint_path;
  config.checkpoint_every = spec.checkpoint_every;
  return config;
}

std::unique_ptr<core::Optimizer> make_optimizer(const JobSpec& spec,
                                                const std::string& checkpoint_path) {
  if (is_ma_family(spec.algorithm))
    return std::make_unique<core::MaOptimizer>(ma_config_for(spec, checkpoint_path));
  if (spec.algorithm == "Random") return std::make_unique<core::RandomSearch>();
  if (spec.algorithm == "PSO") return std::make_unique<core::PsoOptimizer>();
  if (spec.algorithm == "DE") return std::make_unique<core::DeOptimizer>();
  if (spec.algorithm == "BO") return std::make_unique<gp::BoOptimizer>();
  throw std::invalid_argument("OptDaemon: unknown algorithm: " + spec.algorithm);
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Pausing: return "pausing";
    case JobState::Paused: return "paused";
    case JobState::Killing: return "killing";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Killed: return "killed";
  }
  return "unknown";
}

bool is_active(JobState state) {
  return state == JobState::Pending || state == JobState::Running ||
         state == JobState::Pausing || state == JobState::Killing;
}

bool is_terminal(JobState state) {
  return state == JobState::Done || state == JobState::Failed || state == JobState::Killed;
}

/// The level-triggered pause/kill signal a job's optimizer polls. Kill
/// overrides a pending pause; pause never downgrades a kill.
class JobControl final : public core::RunControl {
 public:
  Signal poll() override { return signal_.load(std::memory_order_acquire); }

  void request_pause() {
    Signal expected = Signal::None;
    signal_.compare_exchange_strong(expected, Signal::Pause, std::memory_order_acq_rel);
  }
  void request_kill() { signal_.store(Signal::Kill, std::memory_order_release); }
  void clear() { signal_.store(Signal::None, std::memory_order_release); }
  Signal current() const { return signal_.load(std::memory_order_acquire); }

 private:
  std::atomic<Signal> signal_{Signal::None};
};

/// Per-job run-event sink: tracks live progress (latest iteration) and folds
/// RunCounters across run segments (a paused+resumed job emits one
/// RunFinished per segment). Two counter families fold differently:
/// trajectory-scoped counters (simulations, failures, iterations,
/// ns_iterations) are recomputed from the full history each segment — replay
/// included — so the last segment's value IS the job total and is
/// overwritten; work-scoped counters (retries, checkpoints, cache traffic)
/// only meter that segment's live effort, so they accumulate.
class JobProgress final : public obs::RunObserver {
 public:
  void on_iteration_completed(const obs::IterationCompleted& event) override {
    const MutexLock lock(mutex_);
    simulations_ = event.simulations_done;
    best_fom_ = event.best_fom;
    feasible_ = event.feasible_found;
  }

  // Handler signature consuming the bracket event, not a second emission;
  // brackets stay owned by optimizer.cpp.
  void on_run_finished(
      const obs::RunFinished& event) override {  // maopt-lint: allow(observer-bracketing)
    const MutexLock lock(mutex_);
    simulations_ = event.simulations;
    best_fom_ = event.best_fom;
    feasible_ = event.feasible;
    wall_seconds_ += event.wall_seconds;
    counters_.simulations = event.counters.simulations;
    counters_.failures = event.counters.failures;
    counters_.iterations = event.counters.iterations;
    counters_.ns_iterations = event.counters.ns_iterations;
    counters_.retries += event.counters.retries;
    counters_.checkpoints += event.counters.checkpoints;
    counters_.checkpoint_bytes += event.counters.checkpoint_bytes;
    counters_.cache_hits += event.counters.cache_hits;
    counters_.cache_misses += event.counters.cache_misses;
    counters_.cache_coalesced += event.counters.cache_coalesced;
  }

  void snapshot(JobStatus& out) const {
    const MutexLock lock(mutex_);
    out.simulations = simulations_;
    out.best_fom = best_fom_;
    out.feasible = feasible_;
    out.wall_seconds = wall_seconds_;
    out.counters = counters_;
  }

 private:
  mutable Mutex mutex_;  ///< leaf lock (below OptDaemon::mutex_)
  std::uint64_t simulations_ MAOPT_GUARDED_BY(mutex_) = 0;
  double best_fom_ MAOPT_GUARDED_BY(mutex_) = 0.0;
  bool feasible_ MAOPT_GUARDED_BY(mutex_) = false;
  double wall_seconds_ MAOPT_GUARDED_BY(mutex_) = 0.0;
  obs::RunCounters counters_ MAOPT_GUARDED_BY(mutex_);
};

/// All per-job state. Mutable fields (state, error, thread handle) are
/// guarded by the daemon's mutex_ by discipline — Job is a nested type, so
/// the annotation cannot name the owning instance's lock.
struct OptDaemon::Job {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::Pending;
  bool checkpointable = false;
  std::string checkpoint_path;
  std::string error;
  bool finished_emitted = false;

  JobControl control;
  JobProgress progress;
  std::unique_ptr<obs::JsonlObserver> jsonl;
  obs::MulticastObserver run_observer;
  std::thread thread;
};

OptDaemon::OptDaemon(DaemonConfig config)
    : config_(std::move(config)),
      pool_(std::make_unique<ThreadPool>(config_.num_threads == 0
                                             ? std::thread::hardware_concurrency()
                                             : config_.num_threads)),
      scheduler_(config_.scheduler) {
  std::filesystem::create_directories(config_.work_dir);
}

OptDaemon::~OptDaemon() {
  std::vector<std::thread> threads;
  {
    const MutexLock lock(mutex_);
    for (auto& [name, job] : jobs_) {
      if (is_active(job->state)) {
        job->control.request_kill();
        if (job->state != JobState::Killing) set_state(*job, JobState::Killing, "daemon shutdown");
      }
      if (job->thread.joinable()) threads.push_back(std::move(job->thread));
    }
  }
  for (std::thread& thread : threads) thread.join();
}

void OptDaemon::add_problem(const std::string& name, const ckt::SizingProblem& problem) {
  const MutexLock lock(mutex_);
  add_problem_locked(name, problem, nullptr, /*reuse_existing=*/false);
}

void OptDaemon::add_deck(const std::string& name, const std::string& deck_path,
                         const std::string& spec_path) {
  // Compile outside the lock: elaboration reads files and builds a nominal
  // validation session, neither of which belongs under the daemon mutex.
  auto problem = std::make_unique<deck::DeckProblem>(
      deck::DeckProblem::from_files(deck_path, spec_path));
  const MutexLock lock(mutex_);
  const ckt::SizingProblem& ref = *problem;
  add_problem_locked(name, ref, std::move(problem), /*reuse_existing=*/false);
}

void OptDaemon::add_problem_locked(const std::string& name, const ckt::SizingProblem& problem,
                                   std::unique_ptr<const ckt::SizingProblem> owned,
                                   bool reuse_existing) {
  if (problems_.count(name) != 0) {
    if (reuse_existing) return;  // `owned` (if any) is discarded
    throw std::invalid_argument("OptDaemon: duplicate problem: " + name);
  }

  eval::EvalServiceConfig service_config = config_.service;
  service_config.shared_pool = pool_.get();  // one simulator pool across all stacks
  if (service_config.cache_dir.empty())
    service_config.cache_dir = config_.work_dir + "/cache/" + name;

  ProblemEntry entry;
  entry.problem = &problem;
  entry.owned = std::move(owned);
  entry.stack = std::make_unique<ServiceStack>(problem, service_config, config_.resilient);
  entry.stack->service().set_admission(&scheduler_);
  for (const auto& [tenant, weight] : tenants_) {
    if (!tenant.empty())
      entry.stack->service().register_tenant(tenant,
                                             config_.work_dir + "/tenants/" + tenant + "/" + name);
  }
  problems_.emplace(name, std::move(entry));
}

void OptDaemon::register_tenant(const std::string& name, double weight) {
  const MutexLock lock(mutex_);
  tenants_[name] = weight;
  scheduler_.set_weight(name, weight);
  if (name.empty()) return;  // the default namespace always exists
  for (auto& [problem_name, entry] : problems_)
    entry.stack->service().register_tenant(
        name, config_.work_dir + "/tenants/" + name + "/" + problem_name);
}

std::uint64_t OptDaemon::submit(const JobSpec& submitted) {
  JobSpec spec = submitted;
  if (!spec.deck_path.empty()) {
    if (spec.problem.empty())
      spec.problem = std::filesystem::path(spec.deck_path).stem().string();
    bool registered = false;
    {
      const MutexLock lock(mutex_);
      registered = problems_.count(spec.problem) != 0;
    }
    if (!registered) {
      // Compile outside the lock; two racing submits of the same deck both
      // compile, and the loser's problem is discarded by reuse_existing.
      auto problem = std::make_unique<deck::DeckProblem>(
          deck::DeckProblem::from_files(spec.deck_path, spec.spec_path));
      const MutexLock lock(mutex_);
      const ckt::SizingProblem& ref = *problem;
      add_problem_locked(spec.problem, ref, std::move(problem), /*reuse_existing=*/true);
    }
  }

  const MutexLock lock(mutex_);
  if (spec.name.empty()) throw std::invalid_argument("OptDaemon: job name must be non-empty");
  if (jobs_.count(spec.name) != 0)
    throw std::invalid_argument("OptDaemon: duplicate job name: " + spec.name);
  if (problems_.count(spec.problem) == 0)
    throw std::invalid_argument("OptDaemon: unknown problem: " + spec.problem);
  if (!known_algorithm(spec.algorithm))
    throw std::invalid_argument("OptDaemon: unknown algorithm: " + spec.algorithm);
  if (spec.simulation_budget == 0)
    throw std::invalid_argument("OptDaemon: simulation_budget must be > 0");
  if (spec.resume_from_checkpoint && !is_ma_family(spec.algorithm))
    throw std::invalid_argument("OptDaemon: " + spec.algorithm + " is not checkpointable");
  if (tenants_.count(spec.tenant) == 0) {
    tenants_[spec.tenant] = 1.0;
    scheduler_.set_weight(spec.tenant, 1.0);
    if (!spec.tenant.empty())
      for (auto& [problem_name, entry] : problems_)
        entry.stack->service().register_tenant(
            spec.tenant, config_.work_dir + "/tenants/" + spec.tenant + "/" + problem_name);
  }

  auto owned = std::make_unique<Job>();
  Job* job = owned.get();
  job->id = next_job_id_++;
  job->spec = spec;
  job->checkpointable = is_ma_family(spec.algorithm);
  job->checkpoint_path = config_.work_dir + "/" + spec.name + ".ckpt";
  job->run_observer.add(&job->progress);
  if (!spec.jsonl_path.empty()) {
    job->jsonl = std::make_unique<obs::JsonlObserver>(spec.jsonl_path);
    job->run_observer.add(job->jsonl.get());
  }
  jobs_.emplace(spec.name, std::move(owned));

  if (config_.observer != nullptr) {
    obs::JobSubmitted event;
    event.job_id = job->id;
    event.name = spec.name;
    event.tenant = spec.tenant;
    event.problem = spec.problem;
    event.algorithm = spec.algorithm;
    event.seed = spec.seed;
    event.simulation_budget = spec.simulation_budget;
    config_.observer->on_job_submitted(event);
  }

  const bool resuming = spec.resume_from_checkpoint;
  set_state(*job, JobState::Running, resuming ? "resumed from checkpoint" : "started");
  job->thread = std::thread([this, job, resuming] { worker(job, resuming); });
  return job->id;
}

bool OptDaemon::pause(const std::string& name) {
  const MutexLock lock(mutex_);
  Job* job = find_job(name);
  if (job == nullptr || job->state != JobState::Running || !job->checkpointable) return false;
  job->control.request_pause();
  set_state(*job, JobState::Pausing, "pause requested");
  return true;
}

bool OptDaemon::resume(const std::string& name) {
  std::thread finished;
  {
    const MutexLock lock(mutex_);
    Job* job = find_job(name);
    if (job == nullptr || job->state != JobState::Paused) return false;
    finished = std::move(job->thread);  // the paused segment's thread has exited
    job->control.clear();
    set_state(*job, JobState::Running, "resumed");
    job->thread = std::thread([this, job] { worker(job, true); });
  }
  if (finished.joinable()) finished.join();
  return true;
}

bool OptDaemon::kill(const std::string& name) {
  const MutexLock lock(mutex_);
  Job* job = find_job(name);
  if (job == nullptr || is_terminal(job->state)) return false;
  job->control.request_kill();
  if (job->state == JobState::Paused) {
    // No live thread to honor the signal — the job dies in place; its
    // checkpoint stays on disk (a killed job is not resumable through the
    // daemon, but the artifact is preserved for post-mortems).
    set_state(*job, JobState::Killed, "killed while paused");
    emit_finished(*job);
  } else if (job->state != JobState::Killing) {
    set_state(*job, JobState::Killing, "kill requested");
  }
  return true;
}

JobStatus OptDaemon::wait(const std::string& name) {
  MutexLock lock(mutex_);
  Job* job = find_job(name);
  if (job == nullptr) throw std::invalid_argument("OptDaemon: unknown job: " + name);
  state_cv_.wait(lock, [job] { return !is_active(job->state); });
  return status_locked(*job);
}

JobStatus OptDaemon::status(const std::string& name) const {
  const MutexLock lock(mutex_);
  const Job* job = find_job(name);
  if (job == nullptr) throw std::invalid_argument("OptDaemon: unknown job: " + name);
  return status_locked(*job);
}

std::vector<JobStatus> OptDaemon::jobs() const {
  const MutexLock lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [name, job] : jobs_) out.push_back(status_locked(*job));
  std::sort(out.begin(), out.end(),
            [](const JobStatus& a, const JobStatus& b) { return a.id < b.id; });
  return out;
}

eval::EvalService& OptDaemon::service(const std::string& problem) {
  const MutexLock lock(mutex_);
  const auto it = problems_.find(problem);
  if (it == problems_.end()) throw std::invalid_argument("OptDaemon: unknown problem: " + problem);
  return it->second.stack->service();
}

OptDaemon::Job* OptDaemon::find_job(const std::string& name) const {
  const auto it = jobs_.find(name);
  return it == jobs_.end() ? nullptr : it->second.get();
}

JobStatus OptDaemon::status_locked(const Job& job) const {
  JobStatus out;
  out.id = job.id;
  out.spec = job.spec;
  out.state = job.state;
  out.error = job.error;
  job.progress.snapshot(out);
  return out;
}

void OptDaemon::set_state(Job& job, JobState to, const std::string& reason) {
  const JobState from = job.state;
  job.state = to;
  if (config_.observer != nullptr) {
    obs::JobStateChanged event;
    event.job_id = job.id;
    event.name = job.spec.name;
    event.from = to_string(from);
    event.to = to_string(to);
    event.reason = reason;
    config_.observer->on_job_state_changed(event);
  }
  state_cv_.notify_all();
}

void OptDaemon::emit_finished(Job& job) {
  if (job.finished_emitted) return;
  job.finished_emitted = true;
  if (config_.observer == nullptr) return;
  const JobStatus status = status_locked(job);
  obs::JobFinished event;
  event.job_id = job.id;
  event.name = job.spec.name;
  event.tenant = job.spec.tenant;
  event.state = to_string(job.state);
  event.simulations = status.simulations;
  event.best_fom = status.best_fom;
  event.feasible = status.feasible;
  event.wall_seconds = status.wall_seconds;
  event.counters = status.counters;
  config_.observer->on_job_finished(event);
}

void OptDaemon::worker(Job* job, bool resuming) {
  // Pool workers resolve their namespace from the request, not this scope —
  // the scope binds the tenant for cache lookups and admission accounting on
  // the job's driving thread (every evaluate entry point reads it).
  const eval::ScopedTenant scope(job->spec.tenant);
  try {
    run_segment(*job, resuming);
  } catch (const std::exception& e) {
    const MutexLock lock(mutex_);
    job->error = e.what();
    set_state(*job, JobState::Failed, "exception");
    emit_finished(*job);
  }
}

void OptDaemon::run_segment(Job& job, bool resuming) {
  const ckt::SizingProblem* inner = nullptr;
  eval::EvalService* service = nullptr;
  {
    const MutexLock lock(mutex_);
    ProblemEntry& entry = problems_.at(job.spec.problem);
    inner = entry.problem;
    service = &entry.stack->service();
  }

  core::RunOptions options;
  options.seed = job.spec.seed;
  options.simulation_budget = job.spec.simulation_budget;
  options.observer = &job.run_observer;
  options.control = &job.control;

  core::RunHistory history;
  if (!resuming) {
    // Same protocol as a bare run: X_init from Rng(seed), FoM reference fit
    // on the initial metrics. Routed through the service, the results are
    // identical (cache hits return the stored metrics verbatim), so the
    // daemon trajectory is bit-identical to a same-seed bare run.
    Rng rng(job.spec.seed);
    auto initial = core::sample_initial_set(*service, job.spec.initial_samples, rng);
    std::vector<linalg::Vec> rows;
    rows.reserve(initial.size());
    for (const auto& record : initial) rows.push_back(record.metrics);
    const auto fom = ckt::FomEvaluator::fit_reference(*inner, rows);
    const auto optimizer = make_optimizer(job.spec, job.checkpoint_path);
    history = optimizer->run(*service, initial, fom, options);
  } else {
    // The checkpoint carries the initial records, so the FoM reference is
    // rebuilt from the exact rows the original segment fit it on.
    const core::RunCheckpoint checkpoint = core::load_checkpoint(job.checkpoint_path);
    std::vector<linalg::Vec> rows;
    rows.reserve(checkpoint.history.num_initial);
    for (std::size_t i = 0;
         i < checkpoint.history.num_initial && i < checkpoint.history.records.size(); ++i)
      rows.push_back(checkpoint.history.records[i].metrics);
    const auto fom = ckt::FomEvaluator::fit_reference(*inner, rows);
    core::MaOptimizer optimizer(ma_config_for(job.spec, job.checkpoint_path));
    history = optimizer.resume(*service, checkpoint, fom, options);
  }

#if defined(__GLIBC__)
  // Hand the finished segment's freed memory back to the OS. Each job runs
  // on a thread of its own, and glibc keeps what a thread freed resident in
  // that thread's arena; across many jobs those arenas add up.
  malloc_trim(0);
#endif
  const MutexLock lock(mutex_);
  if (job.control.current() == core::RunControl::Signal::Kill ||
      (history.aborted && history.abort_reason == "killed")) {
    set_state(job, JobState::Killed, "killed");
    emit_finished(job);
  } else if (history.aborted) {
    job.error = history.abort_reason;
    set_state(job, JobState::Failed, history.abort_reason);
    emit_finished(job);
  } else if (history.simulations_used() >= job.spec.simulation_budget) {
    set_state(job, JobState::Done, "budget complete");
    emit_finished(job);
  } else {
    // Stopped early without abort: the pause yield point checkpointed and
    // broke out of the loop.
    set_state(job, JobState::Paused, "checkpointed");
  }
}

}  // namespace maopt::serve
