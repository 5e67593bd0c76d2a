// RunObserver — the sink interface of the run-telemetry layer — plus the
// pieces optimizers use to feed it: RunTelemetry (a null-safe emitting
// facade holding the run's counters), SpanCollector (thread-safe per-phase
// span accumulation, each actor reporting into its own lane) and
// ScopedSpan (RAII wall-clock timer over a phase).
//
// Threading contract: observer callbacks are invoked only on the run's
// driving thread, in event order, so observer implementations need no
// locking of their own. Pool threads never call an observer; spans go into
// the SpanCollector, which the driving thread drains into the iteration
// event.
#pragma once

#include <vector>

#include "common/log.hpp"
#include "common/thread_annotations.hpp"
#include "obs/events.hpp"

namespace maopt::obs {

/// Telemetry sink. Default implementations are no-ops so observers override
/// only the events they care about. Built-ins: JsonlObserver (jsonl_writer
/// .hpp), RunReport (run_report.hpp), MulticastObserver (below).
class RunObserver {
 public:
  RunObserver() = default;
  RunObserver(const RunObserver&) = default;
  RunObserver& operator=(const RunObserver&) = default;
  RunObserver(RunObserver&&) = default;
  RunObserver& operator=(RunObserver&&) = default;
  virtual ~RunObserver() = default;

  virtual void on_run_started(const RunStarted& /*event*/) {}
  virtual void on_simulation_completed(const SimulationCompleted& /*event*/) {}
  virtual void on_iteration_completed(const IterationCompleted& /*event*/) {}
  virtual void on_checkpoint_written(const CheckpointWritten& /*event*/) {}
  virtual void on_run_finished(const RunFinished& /*event*/) {}

  /// Sweep brackets (circuits/variation_sweep.hpp). Unlike the run events
  /// above, these may arrive from whichever thread evaluated the sweep — the
  /// engine serializes whole brackets under its own mutex, so brackets never
  /// interleave, but a sink shared with a concurrent driver must be
  /// thread-safe (JsonlObserver and MulticastObserver are).
  virtual void on_sweep_started(const SweepStarted& /*event*/) {}
  virtual void on_sweep_variant_evaluated(const SweepVariantEvaluated& /*event*/) {}
  virtual void on_sweep_completed(const SweepCompleted& /*event*/) {}

  /// Daemon job lifecycle (serve::OptDaemon). Arrive from daemon control
  /// threads — concurrent jobs interleave, so shared sinks must be
  /// thread-safe (JsonlObserver and MulticastObserver are).
  virtual void on_job_submitted(const JobSubmitted& /*event*/) {}
  virtual void on_job_state_changed(const JobStateChanged& /*event*/) {}
  virtual void on_job_finished(const JobFinished& /*event*/) {}
};

/// Fans every event out to a list of sinks (e.g. JSONL file + in-memory
/// report in one run). Sinks are not owned and must outlive this object.
/// The sink list is mutex-guarded so add() is safe concurrent with dispatch
/// — several runs on different threads can share one multicast fan-out (the
/// multi-tenant daemon shape); the *sinks* they fan to must then be
/// thread-safe themselves (JsonlObserver is; RunReport is per-run).
class MulticastObserver final : public RunObserver {
 public:
  MulticastObserver() = default;
  explicit MulticastObserver(std::vector<RunObserver*> sinks) : sinks_(std::move(sinks)) {}

  void add(RunObserver* sink) {
    const MutexLock lock(mutex_);
    sinks_.push_back(sink);
  }

  void on_run_started(const RunStarted& event) override;
  void on_simulation_completed(const SimulationCompleted& event) override;
  void on_iteration_completed(const IterationCompleted& event) override;
  void on_checkpoint_written(const CheckpointWritten& event) override;
  void on_run_finished(const RunFinished& event) override;
  void on_sweep_started(const SweepStarted& event) override;
  void on_sweep_variant_evaluated(const SweepVariantEvaluated& event) override;
  void on_sweep_completed(const SweepCompleted& event) override;
  void on_job_submitted(const JobSubmitted& event) override;
  void on_job_state_changed(const JobStateChanged& event) override;
  void on_job_finished(const JobFinished& event) override;

 private:
  mutable Mutex mutex_;
  std::vector<RunObserver*> sinks_ MAOPT_GUARDED_BY(mutex_);
};

/// Per-run emitting facade held by every optimizer loop. With no observer
/// attached every emit collapses to one branch on a null pointer — the
/// telemetry layer costs nothing when unused (<1% on bench_train, see
/// EXPERIMENTS.md). Also owns the run's monotonic counters, which the
/// Optimizer base class folds into RunFinished.
class RunTelemetry {
 public:
  explicit RunTelemetry(RunObserver* observer = nullptr) : observer_(observer) {}

  bool enabled() const { return observer_ != nullptr; }
  RunCounters& counters() { return counters_; }
  const RunCounters& counters() const { return counters_; }

  void emit(const RunStarted& event) {
    if (observer_ != nullptr) observer_->on_run_started(event);
  }
  void emit(const SimulationCompleted& event) {
    if (observer_ != nullptr) observer_->on_simulation_completed(event);
  }
  void emit(const IterationCompleted& event) {
    if (observer_ != nullptr) observer_->on_iteration_completed(event);
  }
  void emit(const CheckpointWritten& event) {
    if (observer_ != nullptr) observer_->on_checkpoint_written(event);
  }
  void emit(const RunFinished& event) {
    if (observer_ != nullptr) observer_->on_run_finished(event);
  }
  void emit(const SweepStarted& event) {
    if (observer_ != nullptr) observer_->on_sweep_started(event);
  }
  void emit(const SweepVariantEvaluated& event) {
    if (observer_ != nullptr) observer_->on_sweep_variant_evaluated(event);
  }
  void emit(const SweepCompleted& event) {
    if (observer_ != nullptr) observer_->on_sweep_completed(event);
  }

 private:
  RunObserver* observer_;
  RunCounters counters_;
};

/// Accumulates the spans of one optimizer iteration. add() is thread-safe so
/// concurrent actor workers report into their own lanes; take() drains on
/// the driving thread at the iteration boundary. A disabled collector (no
/// observer attached) makes add() a no-op so call sites skip clock reads.
class SpanCollector {
 public:
  explicit SpanCollector(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void add(Phase phase, int lane, double seconds) {
    if (!enabled_) return;
    const MutexLock lock(mutex_);
    spans_.push_back({phase, lane, seconds});
  }

  /// Drains the collected spans (ready for the next iteration).
  std::vector<PhaseSpan> take() {
    const MutexLock lock(mutex_);
    std::vector<PhaseSpan> out;
    out.swap(spans_);
    return out;
  }

 private:
  bool enabled_;
  Mutex mutex_;
  std::vector<PhaseSpan> spans_ MAOPT_GUARDED_BY(mutex_);
};

/// RAII wall-clock span: records [construction, stop-or-destruction) into
/// `collector` under (phase, lane). Safe to use unconditionally — when the
/// collector is disabled both the clock reads and the record are skipped.
class ScopedSpan {
 public:
  ScopedSpan(SpanCollector& collector, Phase phase, int lane = -1)
      : collector_(&collector), phase_(phase), lane_(lane), armed_(collector.enabled()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;
  ~ScopedSpan() { stop(); }

  /// Ends the span now (idempotent).
  void stop() {
    if (!armed_) return;
    armed_ = false;
    collector_->add(phase_, lane_, clock_.elapsed_seconds());
  }

 private:
  SpanCollector* collector_;
  Phase phase_;
  int lane_;
  bool armed_;
  Stopwatch clock_;
};

}  // namespace maopt::obs
