// Unit tests for the fault-tolerant batched sweep engine
// (variation_sweep.hpp): aggregation math, partial-failure policies,
// provenance, determinism under injected faults, and atomic telemetry
// bracketing.
#include "circuits/variation_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "../support/variation_test_problems.hpp"
#include "circuits/analytic_problems.hpp"
#include "circuits/resilient_problem.hpp"

namespace maopt::ckt {
namespace {

using testing::SeedFailInjector;
using testing::VariedAnalytic;

/// Three variants whose metrics are distinct closed forms: shifts move f0 /
/// the GE metric / the LE metric independently (seeds tag the variants for
/// SeedFailInjector).
std::vector<SweepVariant> three_variants() {
  std::vector<SweepVariant> v(3);
  v[0].pv.nmos_vth_shift = 0.10;
  v[0].pv.seed = 0;
  v[0].label = "v0";
  v[1].pv.pmos_vth_shift = -0.30;
  v[1].pv.seed = 1;
  v[1].label = "v1";
  v[2].pv.nmos_kp_factor = 1.50;
  v[2].pv.seed = 2;
  v[2].label = "v2";
  return v;
}

Vec test_design() { return {0.25, 0.25}; }

/// Per-variant metric columns for three_variants() at test_design():
///   f0: {0.6, 0.5, 0.5}   ge: {1.0, 0.7, 1.0}   le: {1.0, 1.0, 1.5}
std::vector<Vec> expected_columns(const VariedAnalytic& p) {
  std::vector<Vec> cols(3);
  for (const auto& v : three_variants()) {
    const Vec m = p.evaluate_at(test_design(), v.pv).metrics;
    for (std::size_t j = 0; j < 3; ++j) cols[j].push_back(m[j]);
  }
  return cols;
}

TEST(VariationSweep, WorstCaseAggregatesPerConstraintDirection) {
  VariedAnalytic p;
  SweepPolicyConfig policy;  // WorstCase
  VariationSweepProblem sweep(p, three_variants(), policy, "corners");
  const EvalResult r = sweep.evaluate(test_design());
  ASSERT_TRUE(r.simulation_ok);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.variants_total, 3u);
  EXPECT_EQ(r.variants_failed, 0u);
  const auto cols = expected_columns(p);
  // Target: worst = max. GE constraint: worst = min. LE constraint: worst = max.
  EXPECT_DOUBLE_EQ(r.metrics[0], *std::max_element(cols[0].begin(), cols[0].end()));
  EXPECT_DOUBLE_EQ(r.metrics[1], *std::min_element(cols[1].begin(), cols[1].end()));
  EXPECT_DOUBLE_EQ(r.metrics[2], *std::max_element(cols[2].begin(), cols[2].end()));
}

TEST(VariationSweep, KSigmaMatchesHandComputedMeanPlusKSigma) {
  VariedAnalytic p;
  SweepPolicyConfig policy;
  policy.aggregation = RobustAggregation::KSigma;
  policy.k_sigma = 2.0;
  VariationSweepProblem sweep(p, three_variants(), policy, "corners");
  const EvalResult r = sweep.evaluate(test_design());
  ASSERT_TRUE(r.simulation_ok);
  const auto cols = expected_columns(p);
  for (std::size_t j = 0; j < 3; ++j) {
    double mean = 0.0;
    for (const double v : cols[j]) mean += v;
    mean /= static_cast<double>(cols[j].size());
    double var = 0.0;
    for (const double v : cols[j]) var += (v - mean) * (v - mean);
    const double sigma = std::sqrt(var / static_cast<double>(cols[j].size()));
    // Signed toward the violating direction: + for the target and the LE
    // constraint (bigger is worse), - for the GE constraint.
    const double expected = j == 1 ? mean - 2.0 * sigma : mean + 2.0 * sigma;
    EXPECT_NEAR(r.metrics[j], expected, 1e-12) << "metric " << j;
  }
}

TEST(VariationSweep, YieldQuantileAtOneEqualsWorstCase) {
  VariedAnalytic p;
  SweepPolicyConfig worst;
  SweepPolicyConfig quantile;
  quantile.aggregation = RobustAggregation::YieldQuantile;
  quantile.yield_target = 1.0;
  VariationSweepProblem sweep_worst(p, three_variants(), worst, "corners");
  VariationSweepProblem sweep_quantile(p, three_variants(), quantile, "corners");
  const Vec x = test_design();
  EXPECT_EQ(sweep_worst.evaluate(x).metrics, sweep_quantile.evaluate(x).metrics);
}

TEST(VariationSweep, YieldQuantilePicksTheCoveringValue) {
  VariedAnalytic p;
  SweepPolicyConfig policy;
  policy.aggregation = RobustAggregation::YieldQuantile;
  policy.yield_target = 2.0 / 3.0;  // 2 of 3 variants must achieve the value
  VariationSweepProblem sweep(p, three_variants(), policy, "corners");
  const EvalResult r = sweep.evaluate(test_design());
  ASSERT_TRUE(r.simulation_ok);
  auto cols = expected_columns(p);
  for (auto& c : cols) std::sort(c.begin(), c.end());
  // Bigger-is-worse metrics (f0, LE): value the best 2 of 3 stay at or below
  // -> second-smallest. GE: value the best 2 of 3 stay at or above ->
  // second-largest.
  EXPECT_DOUBLE_EQ(r.metrics[0], cols[0][1]);
  EXPECT_DOUBLE_EQ(r.metrics[1], cols[1][1]);
  EXPECT_DOUBLE_EQ(r.metrics[2], cols[2][1]);
}

TEST(VariationSweep, FailFastFailsWholeSweepButRunsFullBatch) {
  VariedAnalytic p;
  SeedFailInjector faulty(p, {1});
  SweepPolicyConfig policy;
  policy.failure_policy = SweepFailurePolicy::FailFast;
  VariationSweepProblem sweep(faulty, three_variants(), policy, "corners");
  const EvalResult r = sweep.evaluate(test_design());
  EXPECT_FALSE(r.simulation_ok);
  EXPECT_FALSE(r.degraded);  // whole-sweep failure, not a degraded aggregate
  EXPECT_EQ(r.metrics, p.failure_metrics());
  EXPECT_EQ(r.variants_failed, 1u);
  EXPECT_EQ(r.variants_total, 3u);
  // Budget predictability: the surviving variants were still evaluated.
  const SweepStats s = sweep.stats();
  EXPECT_EQ(s.variants_ok, 2u);
  EXPECT_EQ(s.variants_failed, 1u);
  EXPECT_EQ(s.failed_sweeps, 1u);
}

TEST(VariationSweep, PenalizeFailedVariantDegradesDeterministically) {
  VariedAnalytic p;
  SeedFailInjector faulty(p, {1});
  SweepPolicyConfig policy;  // PenalizeFailedVariant is the default
  VariationSweepProblem sweep(faulty, three_variants(), policy, "corners");
  const EvalResult r = sweep.evaluate(test_design());
  ASSERT_TRUE(r.simulation_ok);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.variants_failed, 1u);
  EXPECT_EQ(r.variants_total, 3u);
  // The failed variant contributes failure_metrics to the worst-case: the
  // aggregate equals worst over {v0, v2, penalty} per metric direction.
  const Vec penalty = p.failure_metrics();
  const auto cols = expected_columns(p);
  EXPECT_DOUBLE_EQ(r.metrics[0], std::max({cols[0][0], cols[0][2], penalty[0]}));
  EXPECT_DOUBLE_EQ(r.metrics[1], std::min({cols[1][0], cols[1][2], penalty[1]}));
  EXPECT_DOUBLE_EQ(r.metrics[2], std::max({cols[2][0], cols[2][2], penalty[2]}));
}

TEST(VariationSweep, ConservativeBoundDropsFailedVariants) {
  VariedAnalytic p;
  SeedFailInjector faulty(p, {1});
  SweepPolicyConfig policy;
  policy.failure_policy = SweepFailurePolicy::ConservativeBound;
  policy.min_ok_fraction = 0.5;
  VariationSweepProblem sweep(faulty, three_variants(), policy, "corners");
  const EvalResult r = sweep.evaluate(test_design());
  ASSERT_TRUE(r.simulation_ok);
  EXPECT_TRUE(r.degraded);
  // Aggregate over survivors only (v0 and v2).
  const auto cols = expected_columns(p);
  EXPECT_DOUBLE_EQ(r.metrics[0], std::max(cols[0][0], cols[0][2]));
  EXPECT_DOUBLE_EQ(r.metrics[1], std::min(cols[1][0], cols[1][2]));
  EXPECT_DOUBLE_EQ(r.metrics[2], std::max(cols[2][0], cols[2][2]));
}

TEST(VariationSweep, ConservativeBoundFailsBelowSurvivalFloor) {
  VariedAnalytic p;
  SeedFailInjector faulty(p, {0, 1});  // 1 of 3 survives < min_ok_fraction
  SweepPolicyConfig policy;
  policy.failure_policy = SweepFailurePolicy::ConservativeBound;
  policy.min_ok_fraction = 0.5;
  VariationSweepProblem sweep(faulty, three_variants(), policy, "corners");
  const EvalResult r = sweep.evaluate(test_design());
  EXPECT_FALSE(r.simulation_ok);
  EXPECT_EQ(r.metrics, p.failure_metrics());
  EXPECT_EQ(r.variants_failed, 2u);
}

TEST(VariationSweep, AllVariantsFailedFailsEveryPolicy) {
  VariedAnalytic p;
  SeedFailInjector faulty(p, {0, 1, 2});
  for (const auto fp :
       {SweepFailurePolicy::FailFast, SweepFailurePolicy::PenalizeFailedVariant,
        SweepFailurePolicy::ConservativeBound}) {
    SweepPolicyConfig policy;
    policy.failure_policy = fp;
    VariationSweepProblem sweep(faulty, three_variants(), policy, "corners");
    const EvalResult r = sweep.evaluate(test_design());
    EXPECT_FALSE(r.simulation_ok) << to_string(fp);
    EXPECT_EQ(r.metrics, p.failure_metrics()) << to_string(fp);
    EXPECT_EQ(r.variants_failed, 3u) << to_string(fp);
  }
}

TEST(VariationSweep, ThrowingVariantBecomesFailedNotPropagated) {
  VariedAnalytic p;
  FaultInjectionConfig fcfg;
  fcfg.throw_rate = 1.0;
  FaultInjectingProblem faulty(p, fcfg);
  SweepPolicyConfig policy;
  VariationSweepProblem sweep(faulty, three_variants(), policy, "corners");
  EvalResult r;
  ASSERT_NO_THROW(r = sweep.evaluate(test_design()));
  EXPECT_FALSE(r.simulation_ok);
  EXPECT_EQ(r.variants_failed, 3u);
}

TEST(VariationSweep, DeterministicUnderFaultRateGrid) {
  // The ISSUE acceptance grid: 0 / 10 / 30 / 50 % injected faults. Every
  // sweep must complete with a well-formed result, and two identical stacks
  // must produce bit-identical trajectories.
  const Vec designs[] = {{0.1, 0.2}, {0.5, 0.5}, {0.9, 0.1}, {0.3, 0.8}};
  for (const double rate : {0.0, 0.1, 0.3, 0.5}) {
    FaultInjectionConfig fcfg;
    fcfg.throw_rate = rate / 2;
    fcfg.nan_rate = rate / 4;
    fcfg.garbage_rate = rate / 4;
    fcfg.seed = 42;
    VariedAnalytic p1, p2;
    FaultInjectingProblem f1(p1, fcfg), f2(p2, fcfg);
    SweepPolicyConfig policy;
    VariationSweepProblem s1(f1, three_variants(), policy, "corners");
    VariationSweepProblem s2(f2, three_variants(), policy, "corners");
    for (const Vec& x : designs) {
      const EvalResult a = s1.evaluate(x);
      const EvalResult b = s2.evaluate(x);
      EXPECT_EQ(a.metrics, b.metrics) << "rate " << rate;
      EXPECT_EQ(a.simulation_ok, b.simulation_ok) << "rate " << rate;
      EXPECT_EQ(a.degraded, b.degraded) << "rate " << rate;
      EXPECT_EQ(a.variants_failed, b.variants_failed) << "rate " << rate;
      for (const double m : a.metrics) EXPECT_TRUE(std::isfinite(m));
      // Repeat evaluation of the same design is bit-identical too.
      EXPECT_EQ(s1.evaluate(x).metrics, a.metrics) << "rate " << rate;
    }
    const SweepStats stats = s1.stats();
    EXPECT_EQ(stats.sweeps, 8u);  // 4 designs x 2 evaluations
    EXPECT_EQ(stats.variants_ok + stats.variants_failed, 24u);
    if (rate == 0.0) {
      EXPECT_EQ(stats.variants_failed, 0u);
    }
  }
}

TEST(VariationSweep, GarbageShapedSuccessIsClassifiedFailed) {
  // A variant that "succeeds" with NaN metrics must not poison the aggregate.
  VariedAnalytic p;
  FaultInjectionConfig fcfg;
  fcfg.nan_rate = 1.0;
  FaultInjectingProblem faulty(p, fcfg);
  SweepPolicyConfig policy;
  VariationSweepProblem sweep(faulty, three_variants(), policy, "corners");
  const EvalResult r = sweep.evaluate(test_design());
  EXPECT_FALSE(r.simulation_ok);
  for (const double m : r.metrics) EXPECT_TRUE(std::isfinite(m));
}

struct RecordingObserver final : obs::RunObserver {
  std::vector<obs::SweepStarted> started;
  std::vector<obs::SweepVariantEvaluated> variant_events;
  std::vector<obs::SweepCompleted> completed;
  std::vector<char> order;  // 's' / 'v' / 'c' in emission order

  void on_sweep_started(const obs::SweepStarted& e) override {
    started.push_back(e);
    order.push_back('s');
  }
  void on_sweep_variant_evaluated(const obs::SweepVariantEvaluated& e) override {
    variant_events.push_back(e);
    order.push_back('v');
  }
  void on_sweep_completed(const obs::SweepCompleted& e) override {
    completed.push_back(e);
    order.push_back('c');
  }
};

TEST(VariationSweep, TelemetryBracketsAreCompleteAndTagged) {
  VariedAnalytic p;
  SeedFailInjector faulty(p, {1});
  SweepPolicyConfig policy;
  VariationSweepProblem sweep(faulty, three_variants(), policy, "corners");
  RecordingObserver obs;
  sweep.set_observer(&obs);
  sweep.evaluate(test_design());
  sweep.evaluate({0.7, 0.7});

  ASSERT_EQ(obs.started.size(), 2u);
  ASSERT_EQ(obs.variant_events.size(), 6u);
  ASSERT_EQ(obs.completed.size(), 2u);
  EXPECT_EQ(std::string(obs.order.begin(), obs.order.end()), "svvvcsvvvc");
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(obs.started[k].sweep_id, k);
    EXPECT_EQ(obs.started[k].kind, "corners");
    EXPECT_EQ(obs.started[k].aggregation, "worst-case");
    EXPECT_EQ(obs.started[k].variants, 3u);
    EXPECT_EQ(obs.completed[k].sweep_id, k);
    EXPECT_EQ(obs.completed[k].variants_ok, 2u);
    EXPECT_EQ(obs.completed[k].variants_failed, 1u);
    EXPECT_TRUE(obs.completed[k].degraded);
    EXPECT_EQ(obs.completed[k].policy, "penalize-failed");
  }
  const char* labels[] = {"v0", "v1", "v2"};
  for (std::size_t i = 0; i < obs.variant_events.size(); ++i) {
    const auto& e = obs.variant_events[i];
    EXPECT_EQ(e.sweep_id, i / 3);
    EXPECT_EQ(e.variant, i % 3);
    EXPECT_EQ(e.label, labels[i % 3]);
    EXPECT_EQ(e.ok, (i % 3) != 1);
  }
}

TEST(VariationSweep, StatsReportMentionsEveryCounter) {
  VariedAnalytic p;
  SeedFailInjector faulty(p, {1});
  SweepPolicyConfig policy;
  VariationSweepProblem sweep(faulty, three_variants(), policy, "corners");
  sweep.evaluate(test_design());
  const std::string report = sweep.stats().report();
  EXPECT_NE(report.find("1 sweeps"), std::string::npos) << report;
  EXPECT_NE(report.find("2 ok"), std::string::npos) << report;
  EXPECT_NE(report.find("1 failed"), std::string::npos) << report;
}

TEST(VariationSweep, CtorContractChecks) {
  VariedAnalytic p;
  const auto variants = three_variants();
  SweepPolicyConfig ok;
  EXPECT_THROW(VariationSweepProblem(p, {}, ok, "corners"), std::invalid_argument);

  SweepPolicyConfig bad_k = ok;
  bad_k.aggregation = RobustAggregation::KSigma;
  bad_k.k_sigma = -1.0;
  EXPECT_THROW(VariationSweepProblem(p, variants, bad_k, "corners"), std::invalid_argument);

  SweepPolicyConfig bad_target = ok;
  bad_target.aggregation = RobustAggregation::YieldQuantile;
  bad_target.yield_target = 0.0;
  EXPECT_THROW(VariationSweepProblem(p, variants, bad_target, "corners"), std::invalid_argument);
  bad_target.yield_target = 1.5;
  EXPECT_THROW(VariationSweepProblem(p, variants, bad_target, "corners"), std::invalid_argument);

  SweepPolicyConfig bad_floor = ok;
  bad_floor.min_ok_fraction = -0.1;
  EXPECT_THROW(VariationSweepProblem(p, variants, bad_floor, "corners"), std::invalid_argument);

  // An enabled variation requires a variation-capable inner problem.
  ConstrainedQuadratic quad(2);
  EXPECT_THROW(VariationSweepProblem(quad, variants, ok, "corners"), std::invalid_argument);
  // ...but all-nominal variants are fine on any problem.
  std::vector<SweepVariant> nominal(2);
  nominal[0].label = "a";
  nominal[1].label = "b";
  EXPECT_NO_THROW(VariationSweepProblem(quad, nominal, ok, "corners"));
}

TEST(VariationSweep, RejectsInvalidVariantVariation) {
  VariedAnalytic p;
  std::vector<SweepVariant> bad(1);
  bad[0].pv.sigma_vth = -0.1;
  SweepPolicyConfig policy;
  EXPECT_THROW(VariationSweepProblem(p, bad, policy, "corners"), std::invalid_argument);
}

}  // namespace
}  // namespace maopt::ckt
