// The black-box optimization interface between circuits and optimizers
// (Eq. 1 of the paper): a box-bounded parameter vector x mapped by SPICE
// simulation to metrics f(x) = [f0, f1..fm], where f0 is the target to
// minimize and f1..fm are constrained.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace maopt {
class ThreadPool;
}

namespace maopt::ckt {

using linalg::Vec;

enum class ConstraintKind {
  GreaterEqual,  ///< f_i(x) >= bound
  LessEqual,     ///< f_i(x) <= bound
};

/// Gaussian device-mismatch settings for Monte Carlo yield analysis (see
/// process_variation.hpp). Default-constructed = nominal (no variation).
struct ProcessVariation {
  // Random local mismatch (per-device Gaussian draws, seeded).
  double sigma_vth = 0.0;     ///< absolute threshold spread [V]
  double sigma_kp_rel = 0.0;  ///< relative KP spread
  std::uint64_t seed = 0;     ///< Monte Carlo instance id

  // Deterministic global corner shifts, applied per device type before the
  // random mismatch (see corner_variation() in process_variation.hpp).
  double nmos_vth_shift = 0.0;
  double pmos_vth_shift = 0.0;
  double nmos_kp_factor = 1.0;
  double pmos_kp_factor = 1.0;

  bool enabled() const {
    return sigma_vth != 0.0 || sigma_kp_rel != 0.0 || nmos_vth_shift != 0.0 ||
           pmos_vth_shift != 0.0 || nmos_kp_factor != 1.0 || pmos_kp_factor != 1.0;
  }
};

/// Contract-checks a variation setting: sigmas must be finite and >= 0,
/// shifts finite, KP factors finite and > 0. Throws ContractViolation
/// (MAOPT_CHECK) on violation — a negative sigma or zero KP factor would
/// otherwise silently produce unphysical model cards deep inside a sweep.
void validate_process_variation(const ProcessVariation& pv);

struct ConstraintSpec {
  std::string name;
  std::string unit;
  ConstraintKind kind;
  double bound;        ///< c_i in Eq. 2
  double weight = 1.0; ///< w_i in Eq. 2
};

struct ProblemSpec {
  std::string name;
  std::string target_name;  ///< f_0, minimized
  std::string target_unit;
  double target_weight = 1.0;  ///< w_0 in Eq. 2 (applied to f0 / f0_reference)
  std::vector<ConstraintSpec> constraints;
};

/// Why an evaluation failed (the tag ResilientEvaluator records per attempt).
enum class FailureKind : std::uint8_t {
  Timeout = 0,         ///< attempt exceeded the wall-clock deadline
  NonConvergence = 1,  ///< solver returned simulation_ok = false
  NonFinite = 2,       ///< solver "succeeded" but produced NaN/Inf metrics
  Exception = 3,       ///< solver threw
};
inline constexpr std::size_t kNumFailureKinds = 4;

const char* to_string(FailureKind kind);

/// Where a result came from relative to an eval::EvalService result cache.
enum class CacheOutcome : std::uint8_t {
  Uncached = 0,   ///< no result cache on the evaluation path
  Miss = 1,       ///< simulated for this request
  Hit = 2,        ///< served from the cache
  Coalesced = 3,  ///< shared a concurrent request's simulation
};

/// Result of one simulation: metrics[0] = f0, metrics[1..m] = constraints.
/// The variant fields carry robustness provenance when the result is an
/// aggregate over a corner / Monte Carlo sweep (variation_sweep.hpp):
/// `variants_total` = 0 marks a plain single-point evaluation; `degraded`
/// marks an aggregate whose metrics were shaped by a partial-failure policy
/// (some variants failed but the sweep still produced a usable bound).
///
/// The last four fields say how the result was produced. Each layer stamps
/// what only it knows — ResilientEvaluator the retries and failure kind,
/// EvalService the cache outcome and its simulation time — and every other
/// layer passes them through, so they reach the optimizer through any stack
/// of decorators.
struct EvalResult {
  Vec metrics;
  bool simulation_ok = true;
  bool degraded = false;              ///< partial-failure policy shaped the metrics
  std::uint32_t variants_failed = 0;  ///< variants without usable metrics
  std::uint32_t variants_total = 0;   ///< sweep width; 0 = single-point result

  std::uint32_t retries = 0;  ///< resilient-layer attempts beyond the first
  /// Cause of a failed result, when a layer knows it.
  std::optional<FailureKind> failure_kind = std::nullopt;
  CacheOutcome cache = CacheOutcome::Uncached;
  /// Wall time of the simulation that produced the result; 0 when none ran
  /// for this request (cache hit or coalesced).
  double seconds = 0.0;
};

/// Reusable single-threaded evaluator for one problem. Circuit problems back
/// this with persistent testbench netlists and solver workspaces, so that
/// evaluating many same-topology designs amortizes everything that is
/// design-independent (netlist construction, matrix/LU storage). A session
/// is pinned to the variation it was made at (make_session(): nominal), and
/// its results must be identical to the owning problem's evaluate_at() for
/// the same design and variation.
///
/// A session is NOT thread-safe — one session per worker thread.
class EvalSession {
 public:
  virtual ~EvalSession() = default;
  virtual EvalResult evaluate(const Vec& x) = 0;
};

class SizingProblem {
 public:
  virtual ~SizingProblem() = default;

  virtual const ProblemSpec& spec() const = 0;
  virtual std::size_t dim() const = 0;
  virtual const Vec& lower_bounds() const = 0;
  virtual const Vec& upper_bounds() const = 0;
  /// True for parameters constrained to integer values (device multipliers).
  virtual const std::vector<bool>& integer_mask() const = 0;
  virtual std::vector<std::string> parameter_names() const = 0;

  /// Simulates design x (assumed already within bounds; callers should pass
  /// through clip()). Must be thread-safe: implementations build a fresh
  /// netlist per call.
  virtual EvalResult evaluate(const Vec& x) const = 0;

  /// Simulates design x under variation `pv` — the only way a design is
  /// simulated off nominal (a problem holds no variation state, so
  /// evaluate(x) means evaluate_at(x, {})). Corner sweeps and Monte Carlo
  /// yield estimation are built on it. Must be thread-safe whenever
  /// evaluate() is. The default contract-checks pv and forwards to
  /// evaluate(): correct for variation-free problems at nominal, a
  /// ContractViolation when an enabled pv reaches a problem without
  /// variation support. Circuits (CircuitProblem) and decorators override.
  virtual EvalResult evaluate_at(const Vec& x, const ProcessVariation& pv) const;

  /// Evaluates every design of `xs`, positionally. Never throws for a single
  /// item: a throwing item becomes failure_result(FailureKind::Exception).
  /// The default runs evaluate() per item over `pool` (serially when null)
  /// and stamps `seconds` on uncached results; eval::EvalService overrides
  /// it with its own pool and one admission grant per batch.
  virtual std::vector<EvalResult> evaluate_batch(std::span<const Vec> xs, ThreadPool* pool) const;

  /// Evaluates design x under every variation of `pvs`, positionally, with
  /// the same never-throw-per-item rule as evaluate_batch. The default is a
  /// serial evaluate_at loop; eval::EvalService overrides it with its pool
  /// and per-variant cache keys.
  virtual std::vector<EvalResult> evaluate_variants(const Vec& x,
                                                    std::span<const ProcessVariation> pvs) const;

  /// Session pinned to one variation setting (the per-worker analog of
  /// evaluate_at). Default: contract-checks pv like evaluate_at and returns a
  /// session forwarding every call to evaluate_at(x, pv).
  virtual std::unique_ptr<EvalSession> make_session_at(const ProcessVariation& pv) const;

  /// Creates a reusable evaluation session (see EvalSession). The default
  /// forwards every call to evaluate() — correct for analytic problems and
  /// for wrappers that add no per-call state of their own.
  virtual std::unique_ptr<EvalSession> make_session() const;

  /// Metrics reported when the simulator fails to converge: a maximally
  /// violating, finite vector so surrogate training stays well-posed.
  virtual Vec failure_metrics() const;

  std::size_t num_metrics() const { return 1 + spec().constraints.size(); }

  /// {failure_metrics(), simulation_ok = false} tagged with `kind`.
  EvalResult failure_result(FailureKind kind) const;

  /// True when evaluate_at / make_session_at accept an enabled variation.
  virtual bool supports_process_variation() const { return false; }

  /// Always throws ContractViolation naming evaluate_at / make_session_at: a
  /// problem holds no variation state to set. Virtual only so that
  /// decorators which forward it still compile.
  virtual void set_process_variation(const ProcessVariation& pv);

  /// Content fingerprint for data-defined problems: a stable hash of the
  /// problem's *semantic payload* beyond what spec()/bounds expose (e.g. the
  /// elaborated netlist of a deck-compiled problem). problem_fingerprint()
  /// (eval/result_cache) folds this in when nonzero, so two decks with the
  /// same spec but different circuits never share cache entries. The default
  /// 0 means "spec + bounds fully identify the problem" and leaves every
  /// existing fingerprint (and on-disk journal) unchanged. Decorators that
  /// wrap an inner problem must forward this.
  virtual std::uint64_t content_fingerprint() const { return 0; }

  /// Clamp to bounds and round integer-constrained parameters.
  Vec clip(Vec x) const;

  /// Uniform random design within bounds (integers rounded).
  Vec random_design(Rng& rng) const;

  /// True when all constraints in `metrics` are satisfied.
  bool feasible(const Vec& metrics) const;

 protected:
  /// Contract-checks `pv` (validate_process_variation) and that an enabled
  /// one reaches a problem that supports variation; `caller` names the entry
  /// point in the message.
  void check_variation(const ProcessVariation& pv, const char* caller) const;
};

/// Base of every simulated circuit: the C++ testbenches and
/// deck::DeckProblem. A circuit holds no variation state. Every entry point
/// opens a session through the one open_session() hook — at nominal for
/// evaluate / make_session, at a checked pv for evaluate_at /
/// make_session_at — and the point calls evaluate once through it, so
/// evaluate(x), evaluate_at(x, {}), make_session() and make_session_at({})
/// agree bit for bit by construction. A fresh session per point call keeps
/// them thread-safe.
class CircuitProblem : public SizingProblem {
 public:
  EvalResult evaluate(const Vec& x) const final;
  EvalResult evaluate_at(const Vec& x, const ProcessVariation& pv) const final;
  std::unique_ptr<EvalSession> make_session() const final;
  std::unique_ptr<EvalSession> make_session_at(const ProcessVariation& pv) const final;
  bool supports_process_variation() const override { return true; }

 protected:
  /// A fresh session simulating under `pv`, which the caller has checked.
  virtual std::unique_ptr<EvalSession> open_session(const ProcessVariation& pv) const = 0;
};

/// Signed normalized violation of constraint `k` (0 when satisfied):
/// GreaterEqual: max(0, (c - f)/|c|);  LessEqual: max(0, (f - c)/|c|).
double normalized_violation(const ConstraintSpec& c, double value);

}  // namespace maopt::ckt
