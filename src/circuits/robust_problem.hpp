// Robust (corner-aware) and yield (Monte Carlo mismatch) optimization —
// extension beyond the paper.
//
// Both problems are thin configurations of the fault-tolerant batched sweep
// engine (variation_sweep.hpp):
//
//   RobustProblem  one evaluation simulates the design at a set of process
//                  corners and aggregates (worst-case by default), so an
//                  optimizer searches for designs that meet spec at every
//                  corner — design-for-robustness with zero changes to the
//                  optimizer stack.
//
//   YieldProblem   one evaluation simulates the design under N seeded Monte
//                  Carlo mismatch instances and aggregates (empirical yield
//                  quantile by default), so the optimizer maximizes the
//                  value the target fraction of fabricated parts achieves.
//
// Each evaluation costs |variants| simulations; budgets should be scaled
// accordingly. When the wrapped problem is an eval::EvalService the variants
// of one evaluation run as a single parallel batch with per-variant cache
// keys; partial simulation failures degrade per the configured
// SweepFailurePolicy instead of poisoning the evaluation.
#pragma once

#include <cstdint>
#include <vector>

#include "circuits/process_variation.hpp"
#include "circuits/variation_sweep.hpp"

namespace maopt::ckt {

/// Corner-sweep configuration. Defaults reproduce the classic five-corner
/// worst-case sweep.
struct RobustConfig {
  std::vector<ProcessCorner> corners = {ProcessCorner::TT, ProcessCorner::FF, ProcessCorner::SS,
                                        ProcessCorner::FS, ProcessCorner::SF};
  double vth_step = 0.03;
  double kp_step_rel = 0.10;
  SweepPolicyConfig policy;
};

class RobustProblem final : public VariationSweepProblem {
 public:
  /// Wraps `inner` (not owned; must outlive this object; must support
  /// process variation). Throws std::invalid_argument on an empty or
  /// duplicated corner set, non-finite steps, or invalid policy parameters.
  /// The default config is the five classic corners with worst-case
  /// aggregation and the penalize-failed-variant partial-failure policy.
  explicit RobustProblem(const SizingProblem& inner, RobustConfig config = {});

  std::size_t num_corners() const { return num_variants(); }
  const RobustConfig& config() const { return config_; }

 private:
  RobustConfig config_;
};

/// Gaussian device-mismatch settings for a Monte Carlo yield sweep: each of
/// the `instances` variants draws per-device mismatch from seed
/// seed_base + instance index.
struct MismatchSettings {
  double sigma_vth = 0.02;     ///< absolute threshold spread [V]
  double sigma_kp_rel = 0.05;  ///< relative KP spread
  int instances = 64;
  std::uint64_t seed_base = 1;  ///< seed 0 would make instance 0 nominal-like
};

/// Contract-checks mismatch settings: instances >= 1, sigmas finite and
/// >= 0, at least one sigma > 0 (an all-zero spread would sweep N identical
/// nominal instances). Throws ContractViolation (std::invalid_argument).
void validate_mismatch_settings(const MismatchSettings& settings);

struct YieldConfig {
  MismatchSettings mismatch;
  SweepPolicyConfig policy = default_policy();

  /// Yield runs aggregate by quantile out of the box; every other policy
  /// field keeps its SweepPolicyConfig default.
  static SweepPolicyConfig default_policy() {
    SweepPolicyConfig p;
    p.aggregation = RobustAggregation::YieldQuantile;
    return p;
  }
};

class YieldProblem final : public VariationSweepProblem {
 public:
  /// Wraps `inner` (not owned; must outlive this object; must support
  /// process variation).
  YieldProblem(const SizingProblem& inner, YieldConfig config);

  std::size_t num_instances() const { return num_variants(); }
  const YieldConfig& config() const { return config_; }

 private:
  YieldConfig config_;
};

}  // namespace maopt::ckt
