#include "circuits/analytic_problems.hpp"

#include <cmath>

namespace maopt::ckt {

ConstrainedQuadratic::ConstrainedQuadratic(std::size_t dim, double target, double mean_min,
                                           double x0_max)
    : target_(target), mean_min_(mean_min), x0_max_(x0_max) {
  spec_.name = "constrained_quadratic";
  spec_.target_name = "sq_error";
  spec_.target_unit = "";
  spec_.target_weight = 1.0;
  spec_.constraints = {
      {"mean", "", ConstraintKind::GreaterEqual, mean_min, 1.0},
      {"x0", "", ConstraintKind::LessEqual, x0_max, 1.0},
  };
  lower_.assign(dim, 0.0);
  upper_.assign(dim, 1.0);
  integer_.assign(dim, false);
}

std::vector<std::string> ConstrainedQuadratic::parameter_names() const {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < dim(); ++i) names.push_back("x" + std::to_string(i));
  return names;
}

EvalResult ConstrainedQuadratic::evaluate(const Vec& x) const {
  EvalResult r;
  double f0 = 0.0, mean = 0.0;
  for (const double xi : x) {
    f0 += (xi - target_) * (xi - target_);
    mean += xi;
  }
  mean /= static_cast<double>(x.size());
  r.metrics = {f0, mean, x[0]};
  return r;
}

}  // namespace maopt::ckt
