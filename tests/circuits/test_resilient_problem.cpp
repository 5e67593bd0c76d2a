#include "circuits/resilient_problem.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "../support/variation_test_problems.hpp"
#include "circuits/analytic_problems.hpp"

namespace maopt::ckt {
namespace {

/// Scriptable inner problem: fails the first `fail_first` calls with the
/// configured mode, then behaves like a clean quadratic.
class FlakyProblem final : public SizingProblem {
 public:
  enum class Mode { Throw, NotOk, NanMetrics, Sleep };

  FlakyProblem(std::size_t dim, Mode mode, int fail_first, double sleep_seconds = 0.0)
      : inner_(dim), mode_(mode), fail_first_(fail_first), sleep_seconds_(sleep_seconds) {}

  const ProblemSpec& spec() const override { return inner_.spec(); }
  std::size_t dim() const override { return inner_.dim(); }
  const Vec& lower_bounds() const override { return inner_.lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_.upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_.integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_.parameter_names(); }

  EvalResult evaluate(const Vec& x) const override {
    const int call = calls_.fetch_add(1);
    if (call < fail_first_) {
      switch (mode_) {
        case Mode::Throw: throw std::runtime_error("flaky: singular Jacobian");
        case Mode::NotOk: {
          EvalResult r;
          r.metrics = failure_metrics();
          r.simulation_ok = false;
          return r;
        }
        case Mode::NanMetrics: {
          EvalResult r = inner_.evaluate(x);
          r.metrics[0] = std::nan("");
          return r;
        }
        case Mode::Sleep:
          std::this_thread::sleep_for(
              std::chrono::milliseconds(static_cast<int>(sleep_seconds_ * 1e3)));
          break;
      }
    }
    return inner_.evaluate(x);
  }

  int calls() const { return calls_.load(); }

 private:
  ConstrainedQuadratic inner_;
  Mode mode_;
  int fail_first_;
  double sleep_seconds_;
  mutable std::atomic<int> calls_{0};
};

TEST(ResilientEvaluator, ForwardsProblemShape) {
  ConstrainedQuadratic inner(5);
  const ResilientEvaluator res(inner);
  EXPECT_EQ(res.dim(), inner.dim());
  EXPECT_EQ(res.num_metrics(), inner.num_metrics());
  EXPECT_EQ(res.lower_bounds(), inner.lower_bounds());
  EXPECT_EQ(res.upper_bounds(), inner.upper_bounds());
  EXPECT_EQ(res.parameter_names(), inner.parameter_names());
  EXPECT_EQ(res.spec().name, inner.spec().name);
}

TEST(ResilientEvaluator, CleanProblemPassesThroughUntouched) {
  ConstrainedQuadratic inner(4);
  const ResilientEvaluator res(inner);
  Rng rng(3);
  const Vec x = inner.random_design(rng);
  const EvalResult direct = inner.evaluate(x);
  const EvalResult wrapped = res.evaluate(x);
  ASSERT_TRUE(wrapped.simulation_ok);
  EXPECT_EQ(wrapped.metrics, direct.metrics);
  const FailureStats s = res.stats();
  EXPECT_EQ(s.evaluations, 1u);
  EXPECT_EQ(s.attempts, 1u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.failures, 0u);
}

TEST(ResilientEvaluator, CapturesExceptionsAsFailedResults) {
  FlakyProblem flaky(4, FlakyProblem::Mode::Throw, 1 << 20);
  ResilientConfig cfg;
  cfg.max_retries = 1;
  const ResilientEvaluator res(flaky, cfg);
  Rng rng(4);
  EvalResult r;
  EXPECT_NO_THROW(r = res.evaluate(flaky.random_design(rng)));
  EXPECT_FALSE(r.simulation_ok);
  EXPECT_EQ(r.metrics, flaky.failure_metrics());
  const FailureStats s = res.stats();
  EXPECT_EQ(s.failures, 1u);
  EXPECT_EQ(s.by_kind[static_cast<std::size_t>(FailureKind::Exception)], 2u);  // 1 + 1 retry
}

TEST(ResilientEvaluator, RetriesRecoverTransientFailures) {
  // Fails the first two calls, then succeeds: 2 retries rescue the eval.
  FlakyProblem flaky(4, FlakyProblem::Mode::Throw, 2);
  ResilientConfig cfg;
  cfg.max_retries = 2;
  const ResilientEvaluator res(flaky, cfg);
  Rng rng(5);
  const EvalResult r = res.evaluate(flaky.random_design(rng));
  EXPECT_TRUE(r.simulation_ok);
  const FailureStats s = res.stats();
  EXPECT_EQ(s.evaluations, 1u);
  EXPECT_EQ(s.attempts, 3u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.failures, 0u);
  EXPECT_EQ(flaky.calls(), 3);
}

TEST(ResilientEvaluator, RetryJitterStaysWithinBounds) {
  FlakyProblem flaky(6, FlakyProblem::Mode::NotOk, 1);
  ResilientConfig cfg;
  cfg.max_retries = 3;
  cfg.retry_jitter_frac = 0.2;  // large jitter to stress the clip
  const ResilientEvaluator res(flaky, cfg);
  const EvalResult r = res.evaluate(res.lower_bounds());  // corner design
  EXPECT_TRUE(r.simulation_ok);
}

TEST(ResilientEvaluator, ScrubsNonFiniteMetrics) {
  FlakyProblem flaky(4, FlakyProblem::Mode::NanMetrics, 1 << 20);
  ResilientConfig cfg;
  cfg.max_retries = 0;
  const ResilientEvaluator res(flaky, cfg);
  Rng rng(6);
  const EvalResult r = res.evaluate(flaky.random_design(rng));
  EXPECT_FALSE(r.simulation_ok);
  for (const double m : r.metrics) EXPECT_TRUE(std::isfinite(m));
  EXPECT_EQ(res.stats().by_kind[static_cast<std::size_t>(FailureKind::NonFinite)], 1u);
}

TEST(ResilientEvaluator, PlausibilityScreenCatchesSilentGarbage) {
  ConstrainedQuadratic inner(4);
  FaultInjectionConfig fcfg;
  fcfg.garbage_rate = 1.0;  // solver always "succeeds" with absurd metrics
  const FaultInjectingProblem garbage(inner, fcfg);
  ResilientConfig cfg;
  cfg.max_retries = 0;
  cfg.max_metric_magnitude = 1e6;  // injected garbage is ~1e12
  const ResilientEvaluator res(garbage, cfg);
  Rng rng(13);
  const EvalResult r = res.evaluate(inner.random_design(rng));
  EXPECT_FALSE(r.simulation_ok);
  EXPECT_EQ(res.stats().by_kind[static_cast<std::size_t>(FailureKind::NonFinite)], 1u);
}

TEST(ResilientEvaluator, DeadlineConvertsHangsToTimeouts) {
  FlakyProblem flaky(4, FlakyProblem::Mode::Sleep, 1 << 20, /*sleep_seconds=*/0.25);
  ResilientConfig cfg;
  cfg.deadline_seconds = 0.02;
  cfg.max_retries = 0;
  Rng rng(7);
  Vec x;
  {
    const ResilientEvaluator res(flaky, cfg);
    x = flaky.random_design(rng);
    const EvalResult r = res.evaluate(x);
    EXPECT_FALSE(r.simulation_ok);
    EXPECT_EQ(res.stats().by_kind[static_cast<std::size_t>(FailureKind::Timeout)], 1u);
    EXPECT_EQ(res.stats().failures, 1u);
    // Destructor must block until the abandoned attempt drains, so `flaky`
    // (destroyed after `res`) is never used after free.
  }
}

TEST(ResilientEvaluator, DeadlineLetsFastEvaluationsThrough) {
  ConstrainedQuadratic inner(4);
  ResilientConfig cfg;
  cfg.deadline_seconds = 5.0;
  const ResilientEvaluator res(inner, cfg);
  Rng rng(8);
  const EvalResult r = res.evaluate(inner.random_design(rng));
  EXPECT_TRUE(r.simulation_ok);
  EXPECT_EQ(res.stats().failures, 0u);
}

TEST(ResilientEvaluator, RejectsNonFiniteOrNegativeDeadline) {
  // An infinite deadline used to be accepted and then made every attempt
  // time out at once; the constructor now rejects it.
  ConstrainedQuadratic inner(4);
  for (const double deadline : {std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(), -0.5}) {
    ResilientConfig cfg;
    cfg.deadline_seconds = deadline;
    EXPECT_THROW(ResilientEvaluator(inner, cfg), std::invalid_argument) << deadline;
  }
}

TEST(ResilientEvaluator, HugeFiniteDeadlineEvaluatesCleanly) {
  // 1e10 s is 1e19 ns, past the range of a 64-bit nanosecond count: the
  // wait must saturate, not overflow into an immediate timeout.
  ConstrainedQuadratic inner(4);
  ResilientConfig cfg;
  cfg.deadline_seconds = 1e10;
  const ResilientEvaluator res(inner, cfg);
  Rng rng(9);
  for (int i = 0; i < 3; ++i) {
    const Vec x = inner.random_design(rng);
    const EvalResult r = res.evaluate(x);
    ASSERT_TRUE(r.simulation_ok);
    EXPECT_EQ(r.metrics, inner.evaluate(x).metrics);
  }
  const FailureStats s = res.stats();
  EXPECT_EQ(s.by_kind[static_cast<std::size_t>(FailureKind::Timeout)], 0u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.failures, 0u);
}

TEST(ResilientEvaluator, ReportMentionsEveryFailureKind) {
  ConstrainedQuadratic inner(3);
  const ResilientEvaluator res(inner);
  const std::string report = res.stats().report();
  EXPECT_NE(report.find("timeout"), std::string::npos);
  EXPECT_NE(report.find("non-convergence"), std::string::npos);
  EXPECT_NE(report.find("non-finite"), std::string::npos);
  EXPECT_NE(report.find("exception"), std::string::npos);
  EXPECT_NE(report.find("0 evals"), std::string::npos);
}

TEST(FaultInjection, ZeroRatesPassThrough) {
  ConstrainedQuadratic inner(4);
  const FaultInjectingProblem faulty(inner, FaultInjectionConfig{});
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    const Vec x = inner.random_design(rng);
    EXPECT_EQ(faulty.evaluate(x).metrics, inner.evaluate(x).metrics);
  }
  EXPECT_EQ(faulty.injected(), 0u);
}

TEST(FaultInjection, DeterministicInDesignNotCallOrder) {
  ConstrainedQuadratic inner(4);
  FaultInjectionConfig cfg;
  cfg.throw_rate = 0.5;
  const FaultInjectingProblem faulty(inner, cfg);
  Rng rng(10);
  for (int i = 0; i < 30; ++i) {
    const Vec x = inner.random_design(rng);
    bool threw_first = false;
    try {
      (void)faulty.evaluate(x);
    } catch (const std::runtime_error&) {
      threw_first = true;
    }
    // Re-evaluating the same design must reproduce the same fault decision.
    bool threw_second = false;
    try {
      (void)faulty.evaluate(x);
    } catch (const std::runtime_error&) {
      threw_second = true;
    }
    EXPECT_EQ(threw_first, threw_second);
  }
}

TEST(FaultInjection, RatesRoughlyRespected) {
  ConstrainedQuadratic inner(4);
  FaultInjectionConfig cfg;
  cfg.nan_rate = 0.5;
  const FaultInjectingProblem faulty(inner, cfg);
  Rng rng(11);
  int nan_count = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const EvalResult r = faulty.evaluate(inner.random_design(rng));
    if (std::isnan(r.metrics[0])) ++nan_count;
  }
  EXPECT_GT(nan_count, trials / 4);      // ~0.5 +- noise
  EXPECT_LT(nan_count, 3 * trials / 4);
  EXPECT_EQ(faulty.injected(), static_cast<std::uint64_t>(nan_count));
}

TEST(FaultInjection, MixedSplitsTotalEvenly) {
  const FaultInjectionConfig cfg = FaultInjectionConfig::mixed(0.2, 42, 0.01);
  EXPECT_DOUBLE_EQ(cfg.throw_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.hang_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.nan_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.garbage_rate, 0.05);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_DOUBLE_EQ(cfg.hang_seconds, 0.01);
}

TEST(FaultInjection, RejectsInvalidRates) {
  ConstrainedQuadratic inner(3);
  FaultInjectionConfig cfg;
  cfg.throw_rate = 0.6;
  cfg.nan_rate = 0.6;
  EXPECT_THROW(FaultInjectingProblem(inner, cfg), std::invalid_argument);
}

TEST(FaultInjection, NominalEvaluateAtMatchesEvaluateFaultDecisions) {
  // Fault decisions at nominal are pure in (seed, x): evaluate_at with a
  // disabled variation must draw exactly the same faults as evaluate().
  ConstrainedQuadratic inner(3);
  FaultInjectionConfig cfg;
  cfg.nan_rate = 0.5;
  cfg.seed = 11;
  const FaultInjectingProblem a(inner, cfg);
  const FaultInjectingProblem b(inner, cfg);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const Vec x = inner.random_design(rng);
    const EvalResult via_evaluate = a.evaluate(x);
    const EvalResult via_at = b.evaluate_at(x, ProcessVariation{});
    EXPECT_EQ(via_evaluate.simulation_ok, via_at.simulation_ok);
    const bool a_nan = std::isnan(via_evaluate.metrics[0]);
    const bool b_nan = std::isnan(via_at.metrics[0]);
    EXPECT_EQ(a_nan, b_nan);
  }
}

TEST(FaultInjection, VariantsDrawIndependentDeterministicFaults) {
  // Under an enabled variation the fault decision folds in pv, so each
  // corner / instance draws its own fault — deterministically.
  testing::VariedAnalytic inner;
  FaultInjectionConfig cfg;
  cfg.nan_rate = 0.5;
  cfg.seed = 23;
  const FaultInjectingProblem faulty(inner, cfg);
  Rng rng(9);
  int diverged = 0;
  for (int i = 0; i < 30; ++i) {
    const Vec x = inner.random_design(rng);
    ProcessVariation pv;
    pv.sigma_vth = 0.02;
    pv.seed = 1;
    const EvalResult first = faulty.evaluate_at(x, pv);
    EXPECT_EQ(faulty.evaluate_at(x, pv).simulation_ok, first.simulation_ok);  // replayable
    pv.seed = 2;
    const EvalResult second = faulty.evaluate_at(x, pv);
    const bool first_nan = std::isnan(first.metrics[0]);
    const bool second_nan = std::isnan(second.metrics[0]);
    if (first_nan != second_nan) ++diverged;
  }
  EXPECT_GT(diverged, 0);  // at ~50% rates the two variants must disagree somewhere
}

TEST(ResilientEvaluator, EvaluateAtRetriesAndScrubsPerVariant) {
  // The full deadline/retry/scrub pipeline applies to variation-pinned
  // evaluations too, and forwards pv on every attempt.
  testing::VariedAnalytic inner;
  FaultInjectionConfig cfg;
  cfg.nan_rate = 0.4;
  cfg.seed = 31;
  const FaultInjectingProblem faulty(inner, cfg);
  ResilientConfig rcfg;
  rcfg.max_retries = 2;
  const ResilientEvaluator res(faulty, rcfg);
  EXPECT_TRUE(res.supports_process_variation());
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    ProcessVariation pv;
    pv.sigma_vth = 0.05;
    pv.seed = static_cast<std::uint64_t>(i);
    EvalResult r;
    EXPECT_NO_THROW(r = res.evaluate_at(inner.random_design(rng), pv));
    for (const double m : r.metrics) EXPECT_TRUE(std::isfinite(m));
  }
  EXPECT_GT(faulty.injected(), 0u);
}

TEST(ResilientEvaluator, SessionAtMatchesEvaluateAt) {
  testing::VariedAnalytic inner;
  const ResilientEvaluator res(inner);  // no deadline -> wrapping session
  ProcessVariation pv;
  pv.sigma_vth = 0.03;
  pv.seed = 5;
  auto session = res.make_session_at(pv);
  Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    const Vec x = inner.random_design(rng);
    EXPECT_EQ(session->evaluate(x).metrics, res.evaluate_at(x, pv).metrics);
  }
}

TEST(ResilientOverFaultInjection, EndToEndNeverThrowsAndScrubs) {
  ConstrainedQuadratic inner(4);
  const FaultInjectingProblem faulty(inner, FaultInjectionConfig::mixed(0.4, 7, 0.005));
  ResilientConfig rcfg;
  rcfg.deadline_seconds = 0.5;
  rcfg.max_retries = 1;
  const ResilientEvaluator res(faulty, rcfg);
  Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    EvalResult r;
    EXPECT_NO_THROW(r = res.evaluate(inner.random_design(rng)));
    for (const double m : r.metrics) EXPECT_TRUE(std::isfinite(m));
  }
  EXPECT_GT(faulty.injected(), 0u);
}

}  // namespace
}  // namespace maopt::ckt
