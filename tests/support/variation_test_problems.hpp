// Shared analytic test problems for the variation-sweep / robustness tests:
// closed-form metrics that respond deterministically to ProcessVariation, so
// sweep aggregates can be checked against hand-computed values without SPICE.
#pragma once

#include <set>
#include <utility>

#include "circuits/sizing_problem.hpp"
#include "common/rng.hpp"

namespace maopt::ckt::testing {

/// 2-D analytic problem whose metrics read the variation fields directly:
///   f0 (minimize)           = x0 + x1 + nmos_vth_shift + sigma_vth * u(seed)
///   ge (>= 0.5)             = 1.0 + pmos_vth_shift
///   le (<= 2.0)             = nmos_kp_factor
/// u(seed) is a deterministic draw in [-1, 1), so Monte Carlo variants with
/// distinct seeds produce distinct-but-reproducible metric spreads.
class VariedAnalytic final : public SizingProblem {
 public:
  VariedAnalytic() : lower_(2, 0.0), upper_(2, 1.0), integer_(2, false) {
    spec_.name = "varied-analytic";
    spec_.target_name = "f0";
    spec_.constraints = {
        ConstraintSpec{"ge_metric", "", ConstraintKind::GreaterEqual, 0.5, 1.0},
        ConstraintSpec{"le_metric", "", ConstraintKind::LessEqual, 2.0, 1.0},
    };
  }

  const ProblemSpec& spec() const override { return spec_; }
  std::size_t dim() const override { return 2; }
  const Vec& lower_bounds() const override { return lower_; }
  const Vec& upper_bounds() const override { return upper_; }
  const std::vector<bool>& integer_mask() const override { return integer_; }
  std::vector<std::string> parameter_names() const override { return {"x0", "x1"}; }

  EvalResult evaluate(const Vec& x) const override { return evaluate_at(x, ProcessVariation{}); }

  EvalResult evaluate_at(const Vec& x, const ProcessVariation& pv) const override {
    validate_process_variation(pv);
    EvalResult r;
    r.metrics = {x[0] + x[1] + pv.nmos_vth_shift + pv.sigma_vth * unit_draw(pv.seed),
                 1.0 + pv.pmos_vth_shift, pv.nmos_kp_factor};
    return r;
  }

  bool supports_process_variation() const override { return true; }

  /// The deterministic Monte Carlo draw used for f0, exposed so tests can
  /// recompute expected per-instance metrics.
  static double unit_draw(std::uint64_t seed) {
    Rng rng(seed + 1);
    return 2.0 * rng.uniform() - 1.0;
  }

 private:
  ProblemSpec spec_;
  Vec lower_, upper_;
  std::vector<bool> integer_;
};

/// Decorator that fails (simulation_ok = false) exactly the variants whose
/// pv.seed is in the fail set — precise, deterministic control over which
/// sweep variants go down, unlike rate-based fault injection.
class SeedFailInjector final : public SizingProblem {
 public:
  SeedFailInjector(const SizingProblem& inner, std::set<std::uint64_t> fail_seeds)
      : inner_(&inner), fail_seeds_(std::move(fail_seeds)) {}

  const ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  Vec failure_metrics() const override { return inner_->failure_metrics(); }
  bool supports_process_variation() const override { return inner_->supports_process_variation(); }

  EvalResult evaluate(const Vec& x) const override { return evaluate_at(x, ProcessVariation{}); }

  EvalResult evaluate_at(const Vec& x, const ProcessVariation& pv) const override {
    EvalResult r = inner_->evaluate_at(x, pv);
    if (fail_seeds_.count(pv.seed) != 0) {
      r.metrics = inner_->failure_metrics();
      r.simulation_ok = false;
    }
    return r;
  }

 private:
  const SizingProblem* inner_;
  std::set<std::uint64_t> fail_seeds_;
};

}  // namespace maopt::ckt::testing
