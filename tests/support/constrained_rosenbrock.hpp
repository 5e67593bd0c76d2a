// Nonconvex mixed-integer test fixture: closed-form, so optimizer and
// sampling tests run in milliseconds with a known optimum.
#pragma once

#include <string>
#include <vector>

#include "circuits/sizing_problem.hpp"

namespace maopt::ckt::testing {

/// f0 = Rosenbrock(x) on [-2, 2]^d, subject to ||x||^2 <= radius^2 (the
/// optimum x = 1 sits near the boundary for radius^2 slightly above d). The
/// last parameter is integer-constrained to exercise the mixed-integer path.
class ConstrainedRosenbrock final : public SizingProblem {
 public:
  explicit ConstrainedRosenbrock(std::size_t dim, double radius2_margin = 1.5)
      : lower_(dim, -2.0), upper_(dim, 2.0), integer_(dim, false),
        radius2_(static_cast<double>(dim) + radius2_margin) {
    spec_.name = "constrained_rosenbrock";
    spec_.target_name = "rosenbrock";
    spec_.target_weight = 1.0;
    spec_.constraints = {{"norm2", "", ConstraintKind::LessEqual, radius2_, 1.0}};
    integer_.back() = true;
  }

  const ProblemSpec& spec() const override { return spec_; }
  std::size_t dim() const override { return lower_.size(); }
  const Vec& lower_bounds() const override { return lower_; }
  const Vec& upper_bounds() const override { return upper_; }
  const std::vector<bool>& integer_mask() const override { return integer_; }

  std::vector<std::string> parameter_names() const override {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < dim(); ++i) names.push_back("x" + std::to_string(i));
    return names;
  }

  EvalResult evaluate(const Vec& x) const override {
    EvalResult r;
    double f0 = 0.0, norm2 = 0.0;
    for (std::size_t i = 0; i + 1 < x.size(); ++i) {
      const double a = x[i + 1] - x[i] * x[i];
      const double b = 1.0 - x[i];
      f0 += 100.0 * a * a + b * b;
    }
    for (const double xi : x) norm2 += xi * xi;
    r.metrics = {f0, norm2};
    return r;
  }

 private:
  ProblemSpec spec_;
  Vec lower_, upper_;
  std::vector<bool> integer_;
  double radius2_;
};

}  // namespace maopt::ckt::testing
