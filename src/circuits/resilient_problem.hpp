// Fault-tolerant evaluation layer — extension beyond the paper.
//
// Real SPICE evaluations fail: Newton non-convergence, singular Jacobians,
// step-halving exhaustion in transient, NaN metrics, or a simulator that
// simply never returns. The paper budgets runs in *simulations*, so a run
// must survive such failures without crashing and without losing budget
// accounting. Two decorators provide that:
//
//   ResilientEvaluator    wraps any SizingProblem with a per-attempt
//                         wall-clock deadline, bounded retries (each retry
//                         deterministically jitters the design — the analog
//                         of "nudge the operating point and rerun" in real
//                         flows), exception capture, and NaN/Inf metric
//                         scrubbing. Every failure mode collapses to a
//                         well-formed EvalResult{failure_metrics, ok=false}
//                         and is tallied in a FailureStats report.
//
//   FaultInjectingProblem wraps any SizingProblem and injects seeded,
//                         rate-configurable faults (throw / hang / NaN
//                         metrics / silent garbage) — the test and bench
//                         harness for everything above. Fault decisions are
//                         a pure function of (seed, design vector), so runs
//                         stay deterministic under retries, threading, and
//                         checkpoint/resume replay.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "circuits/sizing_problem.hpp"

namespace maopt::ckt {

struct ResilientConfig {
  /// Per-attempt wall-clock deadline in seconds, finite and >= 0; 0 disables
  /// the deadline (the attempt runs inline on the calling thread). Waits
  /// longer than 1e9 s are capped there.
  double deadline_seconds = 0.0;
  /// Additional attempts after the first failed one.
  int max_retries = 2;
  /// Retry perturbation per dimension, as a fraction of the parameter range.
  double retry_jitter_frac = 1e-3;
  /// Plausibility screen: any |metric| beyond this is classified NonFinite
  /// even when the solver reports success. A simulator that silently writes
  /// garbage is otherwise undetectable; set this to the largest magnitude
  /// any real metric of the wrapped problem can take.
  double max_metric_magnitude = 1e30;
  /// Stream seed for the deterministic retry jitter.
  std::uint64_t seed = 0x5EEDF00DULL;
};

/// Aggregated failure report (a consistent snapshot; see
/// ResilientEvaluator::stats()).
struct FailureStats {
  std::uint64_t evaluations = 0;  ///< calls to evaluate()
  std::uint64_t attempts = 0;     ///< inner evaluations incl. retries
  std::uint64_t retries = 0;      ///< attempts beyond each call's first
  std::uint64_t failures = 0;     ///< calls that exhausted all retries
  std::array<std::uint64_t, kNumFailureKinds> by_kind{};  ///< failed attempts per kind

  /// One-line human-readable summary, e.g.
  /// "120 evals, 9 failed (3 timeout, 4 non-convergence, 0 non-finite,
  ///  2 exception), 14 retries".
  std::string report() const;
};

/// Decorator: makes any SizingProblem safe to call from an optimizer.
/// Thread-safe whenever the inner problem's evaluate() is. `inner` is not
/// owned and must outlive this object.
class ResilientEvaluator final : public SizingProblem {
 public:
  explicit ResilientEvaluator(const SizingProblem& inner, ResilientConfig config = {});
  /// Blocks until abandoned (timed-out) attempts still running on detached
  /// threads have drained, so the inner problem can be safely destroyed.
  ~ResilientEvaluator() override;

  ResilientEvaluator(const ResilientEvaluator&) = delete;
  ResilientEvaluator& operator=(const ResilientEvaluator&) = delete;

  const ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  Vec failure_metrics() const override { return inner_->failure_metrics(); }

  /// Never throws from the inner solver and never returns non-finite
  /// metrics: every failure mode yields {failure_metrics(), ok=false} with
  /// the last attempt's failure_kind. The result carries the retries the
  /// call consumed.
  EvalResult evaluate(const Vec& x) const override;

  /// Variation-pinned evaluation with the full deadline/retry/scrub pipeline;
  /// `pv` is forwarded to the inner problem's evaluate_at on every attempt
  /// (including deadline-guarded ones), so corner sweeps keep per-attempt
  /// fault tolerance. Thread-safe like evaluate().
  EvalResult evaluate_at(const Vec& x, const ProcessVariation& pv) const override;
  std::unique_ptr<EvalSession> make_session_at(const ProcessVariation& pv) const override;
  bool supports_process_variation() const override {
    return inner_->supports_process_variation();
  }
  std::uint64_t content_fingerprint() const override { return inner_->content_fingerprint(); }

  /// Persistent-session support: wraps the inner problem's session in the
  /// same retry/scrub logic — but only when deadline_seconds is 0, where
  /// attempts run inline on the calling thread. With a deadline, a timed-out
  /// attempt keeps running on a detached thread and would race any reused
  /// session state, so the default per-call forwarding session is returned
  /// instead (correct, just without amortization).
  std::unique_ptr<EvalSession> make_session() const override;

  FailureStats stats() const;
  const ResilientConfig& config() const { return config_; }

 private:
  class Session;

  struct Attempt {
    EvalResult result;
    FailureKind kind = FailureKind::NonConvergence;
    bool ok = false;
  };
  /// `session` (optional) is used for the inner evaluation; inline-attempt
  /// mode only — the deadline path always evaluates through inner_ (with the
  /// attempt's variation setting forwarded).
  Attempt run_attempt(const Vec& x, EvalSession* session, const ProcessVariation& pv) const;
  EvalResult evaluate_with(const Vec& x, EvalSession* session, const ProcessVariation& pv) const;

  const SizingProblem* inner_;
  ResilientConfig config_;
  mutable std::atomic<std::uint64_t> evaluations_{0};
  mutable std::atomic<std::uint64_t> attempts_{0};
  mutable std::atomic<std::uint64_t> retries_{0};
  mutable std::atomic<std::uint64_t> failures_{0};
  mutable std::array<std::atomic<std::uint64_t>, kNumFailureKinds> by_kind_{};
  mutable std::atomic<int> inflight_{0};  ///< abandoned attempts still running
};

/// Seeded fault injection rates; the four rates must sum to <= 1.
struct FaultInjectionConfig {
  double throw_rate = 0.0;    ///< throw std::runtime_error
  double hang_rate = 0.0;     ///< sleep hang_seconds before answering
  double nan_rate = 0.0;      ///< simulation_ok = true but NaN metrics
  double garbage_rate = 0.0;  ///< simulation_ok = true, absurd finite metrics
  double hang_seconds = 0.05;
  std::uint64_t seed = 0xFau;

  /// Spreads `total_rate` evenly over throw / hang / NaN / garbage.
  static FaultInjectionConfig mixed(double total_rate, std::uint64_t seed = 0xFau,
                                    double hang_seconds = 0.05);
};

/// Decorator used by tests and the fault-tolerance demo: injects failures at
/// configurable rates. The fault drawn for a design depends only on
/// (seed, x), never on call order, so injection is thread-safe and
/// replay-deterministic. `inner` is not owned and must outlive this object.
class FaultInjectingProblem final : public SizingProblem {
 public:
  explicit FaultInjectingProblem(const SizingProblem& inner, FaultInjectionConfig config);

  const ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  Vec failure_metrics() const override { return inner_->failure_metrics(); }

  EvalResult evaluate(const Vec& x) const override;

  /// Variation-pinned injection: the fault decision is a pure function of
  /// (seed, x) at nominal — identical to evaluate() — and of (seed, x, pv)
  /// under an enabled variation, so each corner / Monte Carlo instance draws
  /// its own deterministic fault. Replay- and thread-deterministic either way.
  EvalResult evaluate_at(const Vec& x, const ProcessVariation& pv) const override;
  bool supports_process_variation() const override {
    return inner_->supports_process_variation();
  }
  std::uint64_t content_fingerprint() const override { return inner_->content_fingerprint(); }

  /// Faults injected so far (throws + hangs + NaN + garbage).
  std::uint64_t injected() const { return injected_.load(); }
  const FaultInjectionConfig& config() const { return config_; }

 private:
  const SizingProblem* inner_;
  FaultInjectionConfig config_;
  mutable std::atomic<std::uint64_t> injected_{0};
};

}  // namespace maopt::ckt
