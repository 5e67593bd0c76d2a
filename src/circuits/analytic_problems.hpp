// A closed-form SizingProblem used by unit tests, quick examples, the
// daemon's "quad" problem and the optimizer-behaviour benches: it exercises
// the full optimizer stack in milliseconds with a known optimum, independent
// of the circuit simulator.
#pragma once

#include "circuits/sizing_problem.hpp"

namespace maopt::ckt {

/// f0(x) = sum_i (x_i - target)^2 on [0,1]^d, subject to
///   mean(x) >= mean_min   and   x_0 <= x0_max.
/// With target = 0.3, mean_min = 0.25, x0_max = 0.6 the optimum is
/// x = (0.3, ..., 0.3) with f0 = 0 and both constraints inactive-but-close.
class ConstrainedQuadratic final : public SizingProblem {
 public:
  explicit ConstrainedQuadratic(std::size_t dim, double target = 0.3, double mean_min = 0.25,
                                double x0_max = 0.6);

  const ProblemSpec& spec() const override { return spec_; }
  std::size_t dim() const override { return lower_.size(); }
  const Vec& lower_bounds() const override { return lower_; }
  const Vec& upper_bounds() const override { return upper_; }
  const std::vector<bool>& integer_mask() const override { return integer_; }
  std::vector<std::string> parameter_names() const override;
  EvalResult evaluate(const Vec& x) const override;

 private:
  ProblemSpec spec_;
  Vec lower_, upper_;
  std::vector<bool> integer_;
  double target_;
  double mean_min_;
  double x0_max_;
};

}  // namespace maopt::ckt
