#include "circuits/sizing_problem.hpp"

#include <gtest/gtest.h>

#include "../support/constrained_rosenbrock.hpp"
#include "circuits/analytic_problems.hpp"

namespace maopt::ckt {
namespace {

using testing::ConstrainedRosenbrock;

TEST(Constraint, NormalizedViolationGreaterEqual) {
  const ConstraintSpec c{"g", "", ConstraintKind::GreaterEqual, 60.0, 1.0};
  EXPECT_DOUBLE_EQ(normalized_violation(c, 70.0), 0.0);   // satisfied
  EXPECT_DOUBLE_EQ(normalized_violation(c, 60.0), 0.0);   // boundary
  EXPECT_DOUBLE_EQ(normalized_violation(c, 30.0), 0.5);   // halfway violation
}

TEST(Constraint, NormalizedViolationLessEqual) {
  const ConstraintSpec c{"t", "", ConstraintKind::LessEqual, 100.0, 1.0};
  EXPECT_DOUBLE_EQ(normalized_violation(c, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(normalized_violation(c, 150.0), 0.5);
}

TEST(Constraint, NormalizedViolationScalesByBoundMagnitude) {
  const ConstraintSpec c{"x", "", ConstraintKind::LessEqual, 0.1, 1.0};
  EXPECT_NEAR(normalized_violation(c, 0.2), 1.0, 1e-12);
}

TEST(SizingProblem, ClipClampsToBox) {
  ConstrainedQuadratic p(3);
  const Vec x = p.clip({-1.0, 0.5, 2.0});
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
  EXPECT_DOUBLE_EQ(x[2], 1.0);
}

TEST(SizingProblem, ClipRoundsIntegerParameters) {
  ConstrainedRosenbrock p(3);  // last parameter is integer-masked
  const Vec x = p.clip({0.5, 0.5, 0.7});
  EXPECT_DOUBLE_EQ(x[2], 1.0);
  const Vec y = p.clip({0.5, 0.5, 0.4});
  EXPECT_DOUBLE_EQ(y[2], 0.0);
}

TEST(SizingProblem, RandomDesignWithinBounds) {
  ConstrainedQuadratic p(8);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Vec x = p.random_design(rng);
    ASSERT_EQ(x.size(), 8u);
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_GE(x[j], p.lower_bounds()[j]);
      EXPECT_LE(x[j], p.upper_bounds()[j]);
    }
  }
}

TEST(SizingProblem, RandomDesignIntegerParamsAreIntegral) {
  ConstrainedRosenbrock p(4);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const Vec x = p.random_design(rng);
    EXPECT_DOUBLE_EQ(x[3], std::round(x[3]));
  }
}

TEST(SizingProblem, FeasibleChecksAllConstraints) {
  ConstrainedQuadratic p(2, 0.3, 0.25, 0.6);
  // metrics = [f0, mean, x0]
  EXPECT_TRUE(p.feasible({0.1, 0.3, 0.3}));
  EXPECT_FALSE(p.feasible({0.1, 0.2, 0.3}));   // mean below 0.25
  EXPECT_FALSE(p.feasible({0.1, 0.3, 0.7}));   // x0 above 0.6
}

TEST(SizingProblem, FailureMetricsViolateEveryConstraint) {
  ConstrainedQuadratic p(2);
  const Vec f = p.failure_metrics();
  ASSERT_EQ(f.size(), p.num_metrics());
  EXPECT_FALSE(p.feasible(f));
  for (std::size_t i = 0; i < p.spec().constraints.size(); ++i)
    EXPECT_GT(normalized_violation(p.spec().constraints[i], f[i + 1]), 0.0);
}

TEST(SizingProblem, NumMetricsCountsTargetPlusConstraints) {
  ConstrainedQuadratic p(2);
  EXPECT_EQ(p.num_metrics(), 3u);
}

}  // namespace
}  // namespace maopt::ckt
