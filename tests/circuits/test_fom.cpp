#include "circuits/fom.hpp"

#include <gtest/gtest.h>

#include "circuits/analytic_problems.hpp"

namespace maopt::ckt {
namespace {

class FomTest : public ::testing::Test {
 protected:
  FomTest() : problem_(2, 0.3, 0.25, 0.6), fom_(problem_, 1.0) {}
  ConstrainedQuadratic problem_;  // metrics = [f0, mean, x0<=0.6]
  FomEvaluator fom_;
};

/// dg/d(metrics) of `fom` at `metrics`, through gradient_into.
Vec gradient(const FomEvaluator& fom, const Vec& metrics) {
  Vec grad(metrics.size());
  fom.gradient_into(metrics, grad);
  return grad;
}

TEST_F(FomTest, FeasibleDesignHasOnlyTargetTerm) {
  // w0 = 1 (analytic problem), f0_ref = 1.
  const double g = fom_(Vec{0.42, 0.5, 0.3});
  EXPECT_DOUBLE_EQ(g, 0.42);
}

TEST_F(FomTest, ViolationAddsPenalty) {
  const double g_ok = fom_(Vec{0.1, 0.5, 0.3});
  const double g_bad = fom_(Vec{0.1, 0.125, 0.3});  // mean violated by 50%
  EXPECT_DOUBLE_EQ(g_bad - g_ok, 0.5);
}

TEST_F(FomTest, PenaltyClampsAtOnePerConstraint) {
  const double g = fom_(Vec{0.0, -100.0, 0.3});  // enormous violation
  EXPECT_DOUBLE_EQ(g, 1.0);
}

TEST_F(FomTest, FeasibleAlwaysBeatsClampedInfeasible) {
  // A feasible design with moderate f0 must outrank any design with a fully
  // clamped violation if w0*f0/f0_ref < 1 — the circuits use w0 = 0.01.
  FomEvaluator fom(problem_, 10.0);  // target term = f0/10
  const double feasible = fom(Vec{5.0, 0.5, 0.3});
  const double infeasible = fom(Vec{0.0, -100.0, 0.3});
  EXPECT_LT(feasible, infeasible);
}

TEST_F(FomTest, GradientTargetTerm) {
  const Vec g = gradient(fom_, Vec{0.42, 0.5, 0.3});
  EXPECT_DOUBLE_EQ(g[0], 1.0);  // w0 / f0_ref
  EXPECT_DOUBLE_EQ(g[1], 0.0);  // satisfied constraint: flat
  EXPECT_DOUBLE_EQ(g[2], 0.0);
}

TEST_F(FomTest, GradientOfActiveGreaterEqualConstraintIsNegative) {
  const Vec g = gradient(fom_, Vec{0.1, 0.2, 0.3});  // mean 0.2 < 0.25
  EXPECT_LT(g[1], 0.0);  // increasing the metric reduces the violation
}

TEST_F(FomTest, GradientOfActiveLessEqualConstraintIsPositive) {
  const Vec g = gradient(fom_, Vec{0.1, 0.5, 0.7});  // x0 0.7 > 0.6
  EXPECT_GT(g[2], 0.0);
}

TEST_F(FomTest, GradientZeroWhenClamped) {
  const Vec g = gradient(fom_, Vec{0.1, -100.0, 0.3});
  EXPECT_DOUBLE_EQ(g[1], 0.0);
}

TEST_F(FomTest, GradientIntoOverwritesEveryEntry) {
  // The actor writes gradients straight into a reused batch row.
  const Vec m{0.1, 0.2, 0.7};
  Vec g(3, 7.0), fresh(3, -3.0);
  fom_.gradient_into(m, g);
  fom_.gradient_into(m, fresh);
  EXPECT_EQ(g, fresh);
  Vec short_g(2);
  EXPECT_THROW(fom_.gradient_into(m, short_g), std::invalid_argument);
  EXPECT_THROW(fom_.gradient_into(Vec{0.1, 0.2}, short_g), std::invalid_argument);
}

TEST_F(FomTest, GradientMatchesFiniteDifference) {
  const Vec m{0.3, 0.22, 0.65};  // both constraints mildly active
  const Vec g = gradient(fom_, m);
  const double eps = 1e-7;
  for (std::size_t i = 0; i < m.size(); ++i) {
    Vec mp = m, mm = m;
    mp[i] += eps;
    mm[i] -= eps;
    EXPECT_NEAR(g[i], (fom_(mp) - fom_(mm)) / (2 * eps), 1e-6) << i;
  }
}

TEST_F(FomTest, FitReferenceUsesMedianAbsTarget) {
  const std::vector<Vec> rows{{2.0, 1, 1}, {4.0, 1, 1}, {8.0, 1, 1}};
  const auto fom = FomEvaluator::fit_reference(problem_, rows);
  EXPECT_DOUBLE_EQ(fom.f0_reference(), 4.0);
}

TEST_F(FomTest, FitReferenceGuardsAgainstZero) {
  const std::vector<Vec> rows{{0.0, 1, 1}};
  const auto fom = FomEvaluator::fit_reference(problem_, rows);
  EXPECT_GT(fom.f0_reference(), 0.0);
}

TEST_F(FomTest, InvalidReferenceThrows) {
  EXPECT_THROW(FomEvaluator(problem_, 0.0), std::invalid_argument);
  EXPECT_THROW(FomEvaluator(problem_, -1.0), std::invalid_argument);
}

TEST_F(FomTest, MetricCountMismatchThrows) {
  EXPECT_THROW(fom_(Vec{1.0, 2.0}), std::invalid_argument);
}

TEST_F(FomTest, WeightedConstraintScalesPenalty) {
  ProblemSpec spec = problem_.spec();
  // Build a second evaluator through a modified problem is overkill here;
  // instead check weight semantics via normalized_violation + manual math.
  const ConstraintSpec c{"w", "", ConstraintKind::GreaterEqual, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(std::min(1.0, c.weight * normalized_violation(c, 0.75)), 0.5);
}

}  // namespace
}  // namespace maopt::ckt
