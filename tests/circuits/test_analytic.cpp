#include "circuits/analytic_problems.hpp"

#include <gtest/gtest.h>

#include "../support/constrained_rosenbrock.hpp"

namespace maopt::ckt {
namespace {

using testing::ConstrainedRosenbrock;

TEST(ConstrainedQuadratic, OptimumHasZeroTarget) {
  ConstrainedQuadratic p(4);
  const auto r = p.evaluate({0.3, 0.3, 0.3, 0.3});
  EXPECT_TRUE(r.simulation_ok);
  EXPECT_NEAR(r.metrics[0], 0.0, 1e-12);
  EXPECT_TRUE(p.feasible(r.metrics));
}

TEST(ConstrainedQuadratic, MetricsMatchDefinition) {
  ConstrainedQuadratic p(2, 0.0);
  const auto r = p.evaluate({0.6, 0.8});
  EXPECT_NEAR(r.metrics[0], 0.36 + 0.64, 1e-12);
  EXPECT_NEAR(r.metrics[1], 0.7, 1e-12);   // mean
  EXPECT_NEAR(r.metrics[2], 0.6, 1e-12);   // x0
}

TEST(ConstrainedQuadratic, LowMeanIsInfeasible) {
  ConstrainedQuadratic p(2);
  const auto r = p.evaluate({0.0, 0.0});
  EXPECT_FALSE(p.feasible(r.metrics));
}

TEST(ConstrainedRosenbrock, GlobalOptimumValue) {
  ConstrainedRosenbrock p(3);
  const auto r = p.evaluate({1.0, 1.0, 1.0});
  EXPECT_NEAR(r.metrics[0], 0.0, 1e-12);
  EXPECT_TRUE(p.feasible(r.metrics));  // ||x||^2 = 3 <= 4.5
}

TEST(ConstrainedRosenbrock, NormConstraintBinds) {
  ConstrainedRosenbrock p(2);  // radius^2 = 3.5
  const auto r = p.evaluate({2.0, 2.0});
  EXPECT_FALSE(p.feasible(r.metrics));
  EXPECT_NEAR(r.metrics[1], 8.0, 1e-12);
}

TEST(ConstrainedRosenbrock, KnownNonOptimalValue) {
  ConstrainedRosenbrock p(2);
  const auto r = p.evaluate({0.0, 0.0});
  EXPECT_NEAR(r.metrics[0], 1.0, 1e-12);
}

TEST(AnalyticProblems, EvaluationIsDeterministic) {
  ConstrainedQuadratic p(5);
  Rng rng(3);
  const Vec x = p.random_design(rng);
  const auto a = p.evaluate(x);
  const auto b = p.evaluate(x);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(AnalyticProblems, ParameterNamesSized) {
  ConstrainedQuadratic p(3);
  EXPECT_EQ(p.parameter_names().size(), 3u);
  ConstrainedRosenbrock q(4);
  EXPECT_EQ(q.parameter_names().size(), 4u);
}

}  // namespace
}  // namespace maopt::ckt
