#include "circuits/resilient_problem.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "circuits/process_variation.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"

namespace maopt::ckt {

namespace {

bool all_plausible(const Vec& v, double max_magnitude) {
  for (const double m : v)
    if (!std::isfinite(m) || std::abs(m) > max_magnitude) return false;
  return true;
}

/// Longest deadline a wait honours: 1e9 s (about 32 years) is 1e18 ns, so
/// steady_clock::now() + the duration stays inside the clock's 64-bit
/// nanosecond range (about 292 years). Longer deadlines saturate here.
constexpr double kMaxDeadlineSeconds = 1e9;

std::chrono::nanoseconds to_duration(double seconds) {
  return std::chrono::nanoseconds(
      static_cast<long long>(std::min(seconds, kMaxDeadlineSeconds) * 1e9));
}

}  // namespace

std::string FailureStats::report() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%llu evals, %llu failed (%llu timeout, %llu non-convergence, "
                "%llu non-finite, %llu exception), %llu retries",
                static_cast<unsigned long long>(evaluations),
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(by_kind[0]),
                static_cast<unsigned long long>(by_kind[1]),
                static_cast<unsigned long long>(by_kind[2]),
                static_cast<unsigned long long>(by_kind[3]),
                static_cast<unsigned long long>(retries));
  return buf;
}

ResilientEvaluator::ResilientEvaluator(const SizingProblem& inner, ResilientConfig config)
    : inner_(&inner), config_(config) {
  MAOPT_CHECK(std::isfinite(config_.deadline_seconds) && config_.deadline_seconds >= 0.0,
              "ResilientEvaluator: deadline_seconds must be finite and >= 0 (0 disables)");
  MAOPT_CHECK(config_.max_retries >= 0, "ResilientEvaluator: max_retries must be >= 0");
  MAOPT_CHECK(std::isfinite(config_.retry_jitter_frac) && config_.retry_jitter_frac >= 0.0,
              "ResilientEvaluator: retry_jitter_frac must be finite and >= 0");
  MAOPT_CHECK(std::isfinite(config_.max_metric_magnitude) && config_.max_metric_magnitude > 0.0,
              "ResilientEvaluator: max_metric_magnitude must be finite and > 0");
}

ResilientEvaluator::~ResilientEvaluator() {
  // An abandoned attempt still references the inner problem; give it time to
  // finish before the inner problem can be torn down by our caller.
  while (inflight_.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

ResilientEvaluator::Attempt ResilientEvaluator::run_attempt(const Vec& x, EvalSession* session,
                                                            const ProcessVariation& pv) const {
  attempts_.fetch_add(1, std::memory_order_relaxed);

  auto classify = [this](EvalResult result, const std::exception_ptr& error) {
    Attempt a;
    if (error) {
      a.kind = FailureKind::Exception;
    } else if (!result.simulation_ok) {
      a.kind = FailureKind::NonConvergence;
    } else if (result.metrics.size() != num_metrics() ||
               !all_plausible(result.metrics, config_.max_metric_magnitude)) {
      a.kind = FailureKind::NonFinite;
    } else {
      a.ok = true;
      a.result = std::move(result);
    }
    return a;
  };

  if (config_.deadline_seconds <= 0.0) {
    EvalResult result;
    std::exception_ptr error;
    try {
      result = session != nullptr ? session->evaluate(x) : inner_->evaluate_at(x, pv);
    } catch (...) {
      error = std::current_exception();
    }
    return classify(std::move(result), error);
  }

  struct Shared {
    Mutex mutex;
    CondVar cv;
    bool done MAOPT_GUARDED_BY(mutex) = false;
    EvalResult result MAOPT_GUARDED_BY(mutex);
    std::exception_ptr error MAOPT_GUARDED_BY(mutex);
  };
  auto shared = std::make_shared<Shared>();
  inflight_.fetch_add(1, std::memory_order_relaxed);
  std::thread worker([inner = inner_, x, pv, shared, &inflight = inflight_] {
    EvalResult result;
    std::exception_ptr error;
    try {
      result = inner->evaluate_at(x, pv);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const MutexLock lock(shared->mutex);
      shared->result = std::move(result);
      shared->error = error;
      shared->done = true;
    }
    shared->cv.notify_one();
    // Must be the thread's last action: once inflight hits zero the
    // ResilientEvaluator (and with it this reference) may be destroyed.
    inflight.fetch_sub(1, std::memory_order_release);
  });

  MutexLock lock(shared->mutex);
  const bool finished =
      shared->cv.wait_for(lock, to_duration(config_.deadline_seconds),
                          [&shared]() MAOPT_REQUIRES(shared->mutex) { return shared->done; });
  if (!finished) {
    lock.unlock();
    worker.detach();  // cannot kill a thread portably; result is discarded
    Attempt a;
    a.kind = FailureKind::Timeout;
    return a;
  }
  EvalResult result = std::move(shared->result);
  const std::exception_ptr error = shared->error;
  lock.unlock();
  worker.join();
  return classify(std::move(result), error);
}

EvalResult ResilientEvaluator::evaluate(const Vec& x) const {
  return evaluate_with(x, nullptr, ProcessVariation{});
}

EvalResult ResilientEvaluator::evaluate_at(const Vec& x, const ProcessVariation& pv) const {
  validate_process_variation(pv);
  return evaluate_with(x, nullptr, pv);
}

EvalResult ResilientEvaluator::evaluate_with(const Vec& x, EvalSession* session,
                                             const ProcessVariation& pv) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  const Vec& lo = lower_bounds();
  const Vec& hi = upper_bounds();

  std::uint32_t retries = 0;
  FailureKind last_kind = FailureKind::NonConvergence;
  const int attempts_allowed = 1 + config_.max_retries;
  Vec attempt_x = x;
  for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      ++retries;
      // Deterministic jittered restart: a tiny perturbation often steps a
      // solver off a singular Jacobian, like re-seeding the operating point.
      // The draw depends on (seed, x), never on call order, so it survives
      // threading and checkpoint/resume replay.
      Rng jitter(derive_seed(config_.seed,
                             hash_design(x) ^ static_cast<std::uint64_t>(attempt)));
      attempt_x = x;
      for (std::size_t j = 0; j < attempt_x.size(); ++j)
        attempt_x[j] += config_.retry_jitter_frac * (hi[j] - lo[j]) * jitter.normal();
      attempt_x = clip(std::move(attempt_x));
    }
    Attempt a = run_attempt(attempt_x, session, pv);
    if (a.ok) {
      a.result.retries = retries;
      return std::move(a.result);
    }
    last_kind = a.kind;
    by_kind_[static_cast<std::size_t>(a.kind)].fetch_add(1, std::memory_order_relaxed);
  }

  failures_.fetch_add(1, std::memory_order_relaxed);
  EvalResult fail = failure_result(last_kind);
  fail.retries = retries;
  return fail;
}

/// Persistent session: holds the inner problem's session and routes every
/// attempt through it, keeping the full retry/classification pipeline.
class ResilientEvaluator::Session final : public EvalSession {
 public:
  Session(const ResilientEvaluator& outer, std::unique_ptr<EvalSession> inner,
          ProcessVariation pv)
      : outer_(&outer), inner_(std::move(inner)), pv_(pv) {}

  EvalResult evaluate(const Vec& x) override {
    return outer_->evaluate_with(x, inner_.get(), pv_);
  }

 private:
  const ResilientEvaluator* outer_;
  std::unique_ptr<EvalSession> inner_;
  ProcessVariation pv_;  ///< retries that bypass the inner session keep the pin
};

std::unique_ptr<EvalSession> ResilientEvaluator::make_session() const {
  // With a deadline, abandoned attempts may still be running on detached
  // threads; a reused inner session would race them. Fall back to the default
  // forwarding session, which goes through the thread-per-attempt path.
  if (config_.deadline_seconds > 0.0) return SizingProblem::make_session();
  return std::make_unique<Session>(*this, inner_->make_session(), ProcessVariation{});
}

std::unique_ptr<EvalSession> ResilientEvaluator::make_session_at(const ProcessVariation& pv) const {
  validate_process_variation(pv);
  // Same deadline caveat as make_session(); the default forwarding session
  // routes through evaluate_at(x, pv) and thus the thread-per-attempt path.
  if (config_.deadline_seconds > 0.0) return SizingProblem::make_session_at(pv);
  return std::make_unique<Session>(*this, inner_->make_session_at(pv), pv);
}

FailureStats ResilientEvaluator::stats() const {
  FailureStats s;
  s.evaluations = evaluations_.load(std::memory_order_relaxed);
  s.attempts = attempts_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.failures = failures_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < kNumFailureKinds; ++k)
    s.by_kind[k] = by_kind_[k].load(std::memory_order_relaxed);
  return s;
}

FaultInjectionConfig FaultInjectionConfig::mixed(double total_rate, std::uint64_t seed,
                                                 double hang_seconds) {
  FaultInjectionConfig c;
  c.throw_rate = c.hang_rate = c.nan_rate = c.garbage_rate = total_rate / 4.0;
  c.seed = seed;
  c.hang_seconds = hang_seconds;
  return c;
}

FaultInjectingProblem::FaultInjectingProblem(const SizingProblem& inner,
                                             FaultInjectionConfig config)
    : inner_(&inner), config_(config) {
  MAOPT_CHECK(config_.throw_rate >= 0 && config_.hang_rate >= 0 && config_.nan_rate >= 0 &&
                  config_.garbage_rate >= 0,
              "FaultInjectingProblem: rates must be >= 0");
  MAOPT_CHECK(config_.throw_rate + config_.hang_rate + config_.nan_rate + config_.garbage_rate <=
                  1.0 + 1e-12,
              "FaultInjectingProblem: rates must sum to <= 1");
}

EvalResult FaultInjectingProblem::evaluate(const Vec& x) const {
  return evaluate_at(x, ProcessVariation{});
}

EvalResult FaultInjectingProblem::evaluate_at(const Vec& x, const ProcessVariation& pv) const {
  validate_process_variation(pv);
  // Fold the variation into the fault hash only when it is enabled, so the
  // nominal fault decision for a design stays bit-identical to evaluate()
  // regardless of which entry point the caller used.
  std::uint64_t h = hash_design(x);
  if (pv.enabled()) h = hash_u64(variation_fingerprint(pv), h);
  Rng rng(derive_seed(config_.seed, h));
  double u = rng.uniform();

  if ((u -= config_.throw_rate) < 0.0) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    throw std::runtime_error("injected fault: Newton iteration diverged");
  }
  if ((u -= config_.hang_rate) < 0.0) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(to_duration(config_.hang_seconds));
    return inner_->evaluate_at(x, pv);
  }
  if ((u -= config_.nan_rate) < 0.0) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    EvalResult r;
    r.metrics.assign(num_metrics(), std::numeric_limits<double>::quiet_NaN());
    r.simulation_ok = true;  // the dangerous case: failure not flagged
    return r;
  }
  if ((u -= config_.garbage_rate) < 0.0) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    EvalResult r;
    r.metrics.resize(num_metrics());
    for (auto& m : r.metrics) m = (rng.uniform() < 0.5 ? -1.0 : 1.0) * 1e12 * rng.uniform();
    r.simulation_ok = true;
    return r;
  }
  return inner_->evaluate_at(x, pv);
}

}  // namespace maopt::ckt
