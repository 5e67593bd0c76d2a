#include "circuits/fom.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "common/statistics.hpp"

namespace maopt::ckt {

FomEvaluator::FomEvaluator(const SizingProblem& problem, double f0_reference,
                           FomSemantics semantics)
    : problem_(&problem), f0_ref_(f0_reference), semantics_(semantics) {
  if (!(f0_reference > 0.0)) throw std::invalid_argument("FomEvaluator: f0_reference must be > 0");
}

FomEvaluator FomEvaluator::fit_reference(const SizingProblem& problem,
                                         const std::vector<Vec>& metric_rows) {
  if (metric_rows.empty()) throw std::invalid_argument("FomEvaluator: empty metric set");
  std::vector<double> f0s;
  f0s.reserve(metric_rows.size());
  for (const auto& m : metric_rows) f0s.push_back(std::abs(m[0]));
  double ref = median(f0s);
  if (ref < 1e-12) ref = 1.0;
  return FomEvaluator(problem, ref);
}

double FomEvaluator::operator()(std::span<const double> metrics) const {
  const auto& spec = problem_->spec();
  if (metrics.size() != problem_->num_metrics())
    throw std::invalid_argument("FomEvaluator: metric count mismatch");
  double g = spec.target_weight * metrics[0] / f0_ref_;
  for (std::size_t i = 0; i < spec.constraints.size(); ++i) {
    const auto& c = spec.constraints[i];
    const double term =
        semantics_ == FomSemantics::Corrected
            ? normalized_violation(c, metrics[i + 1])
            : std::abs(metrics[i + 1] - c.bound) / std::max(std::abs(c.bound), 1e-30);
    g += std::min(1.0, c.weight * term);
  }
  return g;
}

void FomEvaluator::gradient_into(std::span<const double> metrics, std::span<double> grad) const {
  const auto& spec = problem_->spec();
  MAOPT_CHECK(metrics.size() == problem_->num_metrics(), "FomEvaluator: metric count mismatch");
  MAOPT_CHECK(grad.size() == metrics.size(), "FomEvaluator::gradient_into: grad size mismatch");
  std::fill(grad.begin(), grad.end(), 0.0);
  grad[0] = spec.target_weight / f0_ref_;
  for (std::size_t i = 0; i < spec.constraints.size(); ++i) {
    const auto& c = spec.constraints[i];
    const double denom = std::max(std::abs(c.bound), 1e-30);
    if (semantics_ == FomSemantics::Corrected) {
      const double viol = normalized_violation(c, metrics[i + 1]);
      if (viol <= 0.0) continue;             // satisfied: flat
      if (c.weight * viol >= 1.0) continue;  // clamped at 1: flat
      grad[i + 1] = (c.kind == ConstraintKind::GreaterEqual ? -1.0 : 1.0) * c.weight / denom;
    } else {
      const double dev = std::abs(metrics[i + 1] - c.bound) / denom;
      if (c.weight * dev >= 1.0) continue;   // clamped
      if (dev <= 0.0) continue;              // kink at f == c
      grad[i + 1] = (metrics[i + 1] > c.bound ? 1.0 : -1.0) * c.weight / denom;
    }
  }
}

}  // namespace maopt::ckt
