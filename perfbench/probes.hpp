// Benchmark-side probes. Every layer is measured from outside: a timing
// decorator placed *under* an EvalService (or directly under an optimizer
// running on a bare problem) times each simulator call, and observers read
// the optimizer's own events. Nothing here changes what the program
// computes; perfbench/run.py checks that by comparing trajectory digests of
// traced and untraced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "obs/observer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Thread-safe record of simulator calls: one duration per call plus the
/// number of calls that failed (threw or returned simulation_ok = false).
class SimClock {
 public:
  void record(double seconds, bool ok) {
    const std::lock_guard<std::mutex> lock(mutex_);
    durations_.push_back(seconds);
    if (!ok) ++failed_;
  }

  std::vector<double> durations() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return durations_;
  }

  std::uint64_t failed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<double> durations_;
  std::uint64_t failed_ = 0;
};

/// Times `fn` (returning an EvalResult) into `clock`; an exception counts as
/// a failed call and propagates unchanged.
template <class Fn>
maopt::ckt::EvalResult timed_call(SimClock& clock, Fn&& fn) {
  const auto start = Clock::now();
  try {
    maopt::ckt::EvalResult result = fn();
    clock.record(seconds_since(start), result.simulation_ok);
    return result;
  } catch (...) {
    clock.record(seconds_since(start), false);
    throw;
  }
}

class TimedSession final : public maopt::ckt::EvalSession {
 public:
  TimedSession(std::unique_ptr<maopt::ckt::EvalSession> inner, SimClock& clock)
      : inner_(std::move(inner)), clock_(&clock) {}

  maopt::ckt::EvalResult evaluate(const maopt::linalg::Vec& x) override {
    return timed_call(*clock_, [&] { return inner_->evaluate(x); });
  }

 private:
  std::unique_ptr<maopt::ckt::EvalSession> inner_;
  SimClock* clock_;
};

/// SizingProblem decorator that forwards every virtual — sessions,
/// variation-pinned calls and the content fingerprint included — and times
/// each simulator call. It must sit under any EvalService, never above it:
/// optimizers only batch through a service they can see directly.
class TimedProblem final : public maopt::ckt::SizingProblem {
 public:
  TimedProblem(maopt::ckt::SizingProblem& inner, SimClock& clock) : inner_(&inner), clock_(&clock) {}

  const maopt::ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const maopt::linalg::Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const maopt::linalg::Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  maopt::linalg::Vec failure_metrics() const override { return inner_->failure_metrics(); }
  void set_process_variation(const maopt::ckt::ProcessVariation& pv) override {
    inner_->set_process_variation(pv);
  }
  bool supports_process_variation() const override { return inner_->supports_process_variation(); }
  std::uint64_t content_fingerprint() const override { return inner_->content_fingerprint(); }

  maopt::ckt::EvalResult evaluate(const maopt::linalg::Vec& x) const override {
    return timed_call(*clock_, [&] { return inner_->evaluate(x); });
  }
  maopt::ckt::EvalResult evaluate_at(const maopt::linalg::Vec& x,
                                     const maopt::ckt::ProcessVariation& pv) const override {
    return timed_call(*clock_, [&] { return inner_->evaluate_at(x, pv); });
  }
  std::unique_ptr<maopt::ckt::EvalSession> make_session() const override {
    return std::make_unique<TimedSession>(inner_->make_session(), *clock_);
  }
  std::unique_ptr<maopt::ckt::EvalSession> make_session_at(
      const maopt::ckt::ProcessVariation& pv) const override {
    return std::make_unique<TimedSession>(inner_->make_session_at(pv), *clock_);
  }

 private:
  maopt::ckt::SizingProblem* inner_;
  SimClock* clock_;
};

/// The one observer an untraced optimizer run attaches: it keeps, in
/// memory, when the first spec-meeting budgeted simulation completed and
/// the wall time of every iteration.
class RunClock final : public maopt::obs::RunObserver {
 public:
  explicit RunClock(Clock::time_point start) : start_(start) {}

  void on_simulation_completed(const maopt::obs::SimulationCompleted& event) override {
    if (event.feasible && first_feasible_s_ < 0.0) first_feasible_s_ = seconds_since(start_);
  }

  void on_iteration_completed(const maopt::obs::IterationCompleted& event) override {
    iteration_s_.push_back(event.wall_seconds);
  }

  /// Seconds from `start` to the first feasible simulation; < 0 when none.
  double first_feasible_s() const { return first_feasible_s_; }
  const std::vector<double>& iteration_s() const { return iteration_s_; }

 private:
  Clock::time_point start_;
  double first_feasible_s_ = -1.0;
  std::vector<double> iteration_s_;
};

}  // namespace perfbench
