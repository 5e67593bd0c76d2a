#include "circuits/robust_problem.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../support/variation_test_problems.hpp"
#include "circuits/analytic_problems.hpp"
#include "circuits/two_stage_ota.hpp"

namespace maopt::ckt {
namespace {

Vec ota_reference() {
  return {1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4};
}

TEST(RobustProblem, RejectsVariationUnawareInner) {
  ConstrainedQuadratic analytic(3);
  EXPECT_THROW(RobustProblem robust(analytic), std::invalid_argument);
}

TEST(RobustProblem, RejectsEmptyCornerSet) {
  TwoStageOta ota;
  RobustConfig config;
  config.corners.clear();
  EXPECT_THROW(RobustProblem robust(ota, config), std::invalid_argument);
}

TEST(RobustProblem, DelegatesProblemShape) {
  TwoStageOta ota;
  RobustProblem robust(ota);
  EXPECT_EQ(robust.dim(), ota.dim());
  EXPECT_EQ(robust.num_metrics(), ota.num_metrics());
  EXPECT_EQ(robust.parameter_names(), ota.parameter_names());
  EXPECT_EQ(robust.num_corners(), 5u);
}

TEST(RobustProblem, TtOnlyMatchesNominal) {
  TwoStageOta ota;
  RobustConfig config;
  config.corners = {ProcessCorner::TT};
  RobustProblem robust(ota, config);
  const Vec x = ota.clip(ota_reference());
  const auto nominal = ota.evaluate(x);
  const auto robust_r = robust.evaluate(x);
  EXPECT_EQ(robust_r.metrics, nominal.metrics);
}

TEST(RobustProblem, WorstCaseIsNeverBetterThanNominal) {
  TwoStageOta ota;
  RobustProblem robust(ota);
  const Vec x = ota.clip(ota_reference());
  const auto nominal = ota.evaluate(x);
  const auto worst = robust.evaluate(x);
  ASSERT_TRUE(worst.simulation_ok);
  // Target (power): worst-case >= nominal.
  EXPECT_GE(worst.metrics[0], nominal.metrics[0] - 1e-12);
  // Each constraint's worst-case violation >= nominal violation.
  const auto& cs = ota.spec().constraints;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_GE(normalized_violation(cs[i], worst.metrics[i + 1]),
              normalized_violation(cs[i], nominal.metrics[i + 1]) - 1e-12)
        << cs[i].name;
  }
}

TEST(RobustProblem, RestoresInnerToNominal) {
  TwoStageOta ota;
  const Vec x = ota.clip(ota_reference());
  const auto before = ota.evaluate(x);
  {
    RobustProblem robust(ota);
    robust.evaluate(x);
  }
  EXPECT_EQ(ota.evaluate(x).metrics, before.metrics);
}

TEST(RobustProblem, FeasibleRobustDesignIsFeasibleAtEveryCorner) {
  TwoStageOta ota;
  RobustProblem robust(ota);
  const Vec x = ota.clip(ota_reference());
  const auto worst = robust.evaluate(x);
  if (robust.feasible(worst.metrics)) {
    for (const auto& v : robust.variants())
      EXPECT_TRUE(ota.feasible(ota.evaluate_at(x, v.pv).metrics)) << v.label;
  } else {
    SUCCEED();  // reference design need not be robust-feasible
  }
}

TEST(RobustProblem, RejectsDuplicateCorners) {
  TwoStageOta ota;
  RobustConfig config;
  config.corners = {ProcessCorner::TT, ProcessCorner::FF, ProcessCorner::FF};
  EXPECT_THROW(RobustProblem robust(ota, config), std::invalid_argument);
  config.corners = {ProcessCorner::SS, ProcessCorner::SS};
  EXPECT_THROW(RobustProblem robust(ota, config), std::invalid_argument);
}

TEST(RobustProblem, RejectsNonFiniteSteps) {
  TwoStageOta ota;
  RobustConfig config;
  config.vth_step = std::nan("");
  EXPECT_THROW(RobustProblem robust(ota, config), std::invalid_argument);
}

TEST(RobustProblem, ConfigCtorSelectsPolicy) {
  testing::VariedAnalytic p;
  RobustConfig config;
  config.policy.aggregation = RobustAggregation::KSigma;
  config.policy.k_sigma = 1.5;
  RobustProblem robust(p, config);
  EXPECT_EQ(robust.num_corners(), 5u);
  EXPECT_EQ(robust.policy().aggregation, RobustAggregation::KSigma);
  EXPECT_EQ(robust.policy().failure_policy, SweepFailurePolicy::PenalizeFailedVariant);
  // The original fail-fast semantics are one policy field away.
  RobustConfig fail_fast;
  fail_fast.corners = {ProcessCorner::TT, ProcessCorner::FF};
  fail_fast.policy.failure_policy = SweepFailurePolicy::FailFast;
  RobustProblem strict(p, fail_fast);
  EXPECT_EQ(strict.num_corners(), 2u);
  EXPECT_EQ(strict.policy().failure_policy, SweepFailurePolicy::FailFast);
  EXPECT_EQ(strict.policy().aggregation, RobustAggregation::WorstCase);
}

TEST(RobustProblem, CornerVariantsAreLabeled) {
  testing::VariedAnalytic p;
  RobustProblem robust(p);
  ASSERT_EQ(robust.variants().size(), 5u);
  EXPECT_EQ(robust.variants()[0].label, "TT");
  EXPECT_EQ(robust.variants()[1].label, "FF");
  EXPECT_EQ(robust.variants()[4].label, "SF");
}

TEST(RobustProblem, AllCornersFailedFailsWholeSweepWithProvenance) {
  // Corner variants carry seed 0, so failing seed 0 downs every corner: the
  // sweep must fail as a whole but still report exact provenance.
  testing::VariedAnalytic p;
  testing::SeedFailInjector faulty(p, {0});
  RobustProblem robust(faulty, RobustConfig{});
  const EvalResult r = robust.evaluate({0.5, 0.5});
  EXPECT_FALSE(r.simulation_ok);
  EXPECT_EQ(r.variants_failed, 5u);
  EXPECT_EQ(r.variants_total, 5u);
}

TEST(MismatchSettings, ValidationContract) {
  MismatchSettings ok;
  EXPECT_NO_THROW(validate_mismatch_settings(ok));

  MismatchSettings zero_instances = ok;
  zero_instances.instances = 0;
  EXPECT_THROW(validate_mismatch_settings(zero_instances), std::invalid_argument);

  MismatchSettings negative_sigma = ok;
  negative_sigma.sigma_vth = -0.01;
  EXPECT_THROW(validate_mismatch_settings(negative_sigma), std::invalid_argument);

  MismatchSettings nan_sigma = ok;
  nan_sigma.sigma_kp_rel = std::nan("");
  EXPECT_THROW(validate_mismatch_settings(nan_sigma), std::invalid_argument);

  MismatchSettings all_zero = ok;
  all_zero.sigma_vth = 0.0;
  all_zero.sigma_kp_rel = 0.0;
  EXPECT_THROW(validate_mismatch_settings(all_zero), std::invalid_argument);
}

TEST(YieldProblem, SweepsSeededInstancesDeterministically) {
  testing::VariedAnalytic p;
  YieldConfig config;
  config.mismatch.instances = 16;
  config.mismatch.sigma_vth = 0.05;
  config.mismatch.sigma_kp_rel = 0.0;
  YieldProblem yield(p, config);
  EXPECT_EQ(yield.num_instances(), 16u);
  EXPECT_EQ(yield.policy().aggregation, RobustAggregation::YieldQuantile);
  ASSERT_EQ(yield.variants().size(), 16u);
  EXPECT_EQ(yield.variants()[0].pv.seed, config.mismatch.seed_base);
  EXPECT_EQ(yield.variants()[15].pv.seed, config.mismatch.seed_base + 15);
  EXPECT_EQ(yield.variants()[3].label, "mc3");

  const Vec x{0.4, 0.4};
  const EvalResult a = yield.evaluate(x);
  const EvalResult b = yield.evaluate(x);
  ASSERT_TRUE(a.simulation_ok);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.variants_total, 16u);
  // Another instance of the same configuration is bit-identical too.
  YieldProblem twin(p, config);
  EXPECT_EQ(twin.evaluate(x).metrics, a.metrics);
}

TEST(YieldProblem, QuantileCoversTargetFractionOfInstances) {
  testing::VariedAnalytic p;
  YieldConfig config;
  config.mismatch.instances = 20;
  config.mismatch.sigma_vth = 0.08;
  config.mismatch.sigma_kp_rel = 0.0;
  config.policy.aggregation = RobustAggregation::YieldQuantile;
  config.policy.yield_target = 0.9;
  YieldProblem yield(p, config);
  const Vec x{0.4, 0.4};
  const EvalResult r = yield.evaluate(x);
  ASSERT_TRUE(r.simulation_ok);
  // At least 90% of the per-instance f0 values sit at or below the reported
  // quantile (f0 is bigger-is-worse).
  int covered = 0;
  for (const auto& v : yield.variants())
    if (p.evaluate_at(x, v.pv).metrics[0] <= r.metrics[0] + 1e-12) ++covered;
  EXPECT_GE(covered, 18);
}

TEST(YieldProblem, RejectsVariationUnawareInner) {
  ConstrainedQuadratic quad(2);
  EXPECT_THROW(YieldProblem yield(quad, YieldConfig{}), std::invalid_argument);
}

}  // namespace
}  // namespace maopt::ckt
