#include "eval/eval_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <thread>
#include <vector>

#include "../support/variation_test_problems.hpp"
#include "circuits/analytic_problems.hpp"
#include "circuits/resilient_problem.hpp"
#include "circuits/robust_problem.hpp"
#include "circuits/two_stage_ota.hpp"
#include "common/rng.hpp"
#include "obs/observer.hpp"

namespace maopt::eval {
namespace {

/// Counts inner evaluate() calls and optionally runs a hook inside them —
/// the instrument for "exactly one simulation per unique key" assertions.
class CountingProblem final : public ckt::SizingProblem {
 public:
  explicit CountingProblem(const ckt::SizingProblem& inner) : inner_(&inner) {}

  const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override {
    return inner_->parameter_names();
  }

  ckt::EvalResult evaluate(const Vec& x) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (hook) hook(x);
    return inner_->evaluate(x);
  }

  ckt::EvalResult evaluate_at(const Vec& x, const ckt::ProcessVariation& pv) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (hook) hook(x);
    return inner_->evaluate_at(x, pv);
  }

  bool supports_process_variation() const override {
    return inner_->supports_process_variation();
  }

  mutable std::atomic<int> calls{0};
  std::function<void(const Vec&)> hook;

 private:
  const ckt::SizingProblem* inner_;
};

/// Always reports simulation failure (to prove failures are never cached).
class AlwaysFailing final : public ckt::SizingProblem {
 public:
  explicit AlwaysFailing(const ckt::SizingProblem& inner) : inner_(&inner) {}
  const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override {
    return inner_->parameter_names();
  }
  ckt::EvalResult evaluate(const Vec&) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return {inner_->failure_metrics(), /*simulation_ok=*/false};
  }
  mutable std::atomic<int> calls{0};

 private:
  const ckt::SizingProblem* inner_;
};

struct ServiceFixture : ::testing::Test {
  ckt::ConstrainedQuadratic quad{3};
  CountingProblem counting{quad};
};

TEST_F(ServiceFixture, ForwardsProblemInterface) {
  EvalService service(counting);
  EXPECT_EQ(service.dim(), quad.dim());
  EXPECT_EQ(service.spec().name, quad.spec().name);
  EXPECT_EQ(service.lower_bounds(), quad.lower_bounds());
  EXPECT_EQ(service.upper_bounds(), quad.upper_bounds());
  EXPECT_EQ(service.parameter_names(), quad.parameter_names());
  EXPECT_EQ(service.fingerprint(), problem_fingerprint(quad));
}

TEST_F(ServiceFixture, PointPathHitsOnRepeat) {
  EvalService service(counting);
  const Vec x = {0.1, 0.2, 0.3};

  const auto first = service.evaluate(x);
  EXPECT_TRUE(first.simulation_ok);
  EXPECT_EQ(first.cache, ckt::CacheOutcome::Miss);
  EXPECT_GE(first.seconds, 0.0);

  const auto second = service.evaluate(x);
  EXPECT_EQ(second.cache, ckt::CacheOutcome::Hit);
  EXPECT_EQ(second.seconds, 0.0);
  EXPECT_EQ(second.metrics, first.metrics);

  EXPECT_EQ(counting.calls.load(), 1);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, 2u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.coalesced, 0u);
  EXPECT_EQ(c.simulations, 1u);
}

TEST_F(ServiceFixture, MatchesUnwrappedResults) {
  EvalService service(counting);
  const Vec x = {0.25, 0.5, 0.75};
  EXPECT_EQ(service.evaluate(x).metrics, quad.evaluate(x).metrics);
}

TEST_F(ServiceFixture, FailuresAreNotCached) {
  AlwaysFailing failing(quad);
  EvalService service(failing);
  const Vec x = {0.1, 0.2, 0.3};
  EXPECT_FALSE(service.evaluate(x).simulation_ok);
  EXPECT_FALSE(service.evaluate(x).simulation_ok);
  EXPECT_EQ(failing.calls.load(), 2);  // the failure was re-attempted
  const auto c = service.counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.simulations, 2u);
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST_F(ServiceFixture, InnerExceptionPropagatesAndIsNotCached) {
  struct Throwing final : ckt::SizingProblem {
    explicit Throwing(const ckt::SizingProblem& inner) : inner_(&inner) {}
    const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
    std::size_t dim() const override { return inner_->dim(); }
    const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
    const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
    const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
    std::vector<std::string> parameter_names() const override {
      return inner_->parameter_names();
    }
    ckt::EvalResult evaluate(const Vec&) const override {
      calls.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("solver exploded");
    }
    mutable std::atomic<int> calls{0};
    const ckt::SizingProblem* inner_;
  } throwing(quad);

  EvalService service(throwing);
  const Vec x = {0.1, 0.2, 0.3};
  EXPECT_THROW(service.evaluate(x), std::runtime_error);
  // The key must not be stuck in the in-flight map: a retry throws again
  // (rather than deadlocking on a dead producer) and runs a fresh attempt.
  EXPECT_THROW(service.evaluate(x), std::runtime_error);
  EXPECT_EQ(throwing.calls.load(), 2);
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST_F(ServiceFixture, BatchIsPositionalAndDeduplicatesWithinBatch) {
  EvalService service(counting);
  const Vec a = {0.1, 0.2, 0.3};
  const Vec b = {0.4, 0.5, 0.6};
  const Vec c = {0.7, 0.8, 0.9};
  const std::vector<Vec> xs = {a, b, a, c, b, a};

  const auto results = service.evaluate_batch(xs, nullptr);
  ASSERT_EQ(results.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_TRUE(results[i].simulation_ok);
    EXPECT_EQ(results[i].metrics, quad.evaluate(xs[i]).metrics) << "position " << i;
  }

  EXPECT_EQ(counting.calls.load(), 3) << "one simulation per unique design";
  const auto totals = service.counters();
  EXPECT_EQ(totals.requested, xs.size());
  EXPECT_EQ(totals.hits + totals.misses, xs.size());
  EXPECT_EQ(totals.simulations, 3u);
  EXPECT_EQ(totals.misses - totals.coalesced, 3u);

  // Exactly three requests produced a fresh simulation; the duplicates were
  // served by the cache or a concurrent producer (scheduling decides which).
  std::size_t fresh = 0;
  for (const auto& r : results) fresh += r.cache == ckt::CacheOutcome::Miss ? 1 : 0;
  EXPECT_EQ(fresh, 3u);
}

TEST_F(ServiceFixture, BatchHandlesEmptyAndSingle) {
  EvalService service(counting);
  EXPECT_TRUE(service.evaluate_batch({}, nullptr).empty());
  const std::vector<Vec> one = {{0.1, 0.2, 0.3}};
  const auto results = service.evaluate_batch(one, nullptr);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].metrics, quad.evaluate(one[0]).metrics);
  EXPECT_EQ(results[0].cache, ckt::CacheOutcome::Miss);
}

// Satellite #3: N threads requesting overlapping keys must coalesce onto
// exactly one underlying simulation per unique key, and every waiter must
// receive the producer's result. Deterministic even under TSan: the producer
// blocks *inside* the inner problem until all N waiters have registered
// (counted via the service's own coalesced counter), so the schedule cannot
// race the assertion.
TEST_F(ServiceFixture, ConcurrentRequestsCoalesceOntoOneSimulation) {
  constexpr int kWaiters = 4;
  EvalService service(counting);
  const Vec x = {0.3, 0.3, 0.3};

  std::atomic<bool> producer_entered{false};
  counting.hook = [&](const Vec&) {
    producer_entered.store(true, std::memory_order_release);
    while (service.counters().coalesced < kWaiters) std::this_thread::yield();
  };

  ckt::EvalResult producer_result;
  std::thread producer([&] { producer_result = service.evaluate(x); });
  while (!producer_entered.load(std::memory_order_acquire)) std::this_thread::yield();

  std::vector<ckt::EvalResult> waiter_results(kWaiters);
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i)
    waiters.emplace_back([&, i] { waiter_results[i] = service.evaluate(x); });
  for (auto& t : waiters) t.join();
  producer.join();
  counting.hook = nullptr;

  EXPECT_EQ(counting.calls.load(), 1) << "exactly one simulation for the shared key";
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(waiter_results[i].metrics, producer_result.metrics);
    EXPECT_EQ(waiter_results[i].cache, ckt::CacheOutcome::Coalesced);
    EXPECT_EQ(waiter_results[i].seconds, 0.0);
  }
  const auto c = service.counters();
  EXPECT_EQ(c.requested, static_cast<std::uint64_t>(kWaiters) + 1);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, static_cast<std::uint64_t>(kWaiters) + 1);
  EXPECT_EQ(c.coalesced, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(c.simulations, 1u);
}

// Overlapping keys across many free-running threads: whatever the schedule,
// each unique design simulates exactly once (a requester either hits the
// cache or joins the in-flight producer — the publish protocol has no gap).
TEST_F(ServiceFixture, ManyThreadsManyKeysSimulateEachKeyOnce) {
  constexpr int kThreads = 8;
  constexpr int kUnique = 4;
  EvalService service(counting);
  std::vector<Vec> designs;
  for (int k = 0; k < kUnique; ++k)
    designs.push_back({0.1 + 0.2 * k, 0.5, 0.5});

  std::vector<ckt::EvalResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { results[i] = service.evaluate(designs[i % kUnique]); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(counting.calls.load(), kUnique);
  for (int i = 0; i < kThreads; ++i)
    EXPECT_EQ(results[i].metrics, quad.evaluate(designs[i % kUnique]).metrics);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(c.hits + c.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(c.simulations, static_cast<std::uint64_t>(kUnique));
  EXPECT_LE(c.coalesced, c.misses);
}

TEST_F(ServiceFixture, CarriesResilientProvenance) {
  ckt::ResilientEvaluator resilient(quad);
  EvalService service(resilient);
  const Vec x = {0.2, 0.2, 0.2};
  const auto result = service.evaluate(x);
  EXPECT_TRUE(result.simulation_ok);
  EXPECT_FALSE(result.failure_kind.has_value());
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(service.fingerprint(), problem_fingerprint(quad))
      << "fingerprint must see through the resilient wrapper";

  // A failing design keeps the resilient layer's retries and failure kind
  // through the service, which adds its own cache outcome.
  ckt::FaultInjectionConfig nan_always;
  nan_always.nan_rate = 1.0;
  const ckt::FaultInjectingProblem faulty(quad, nan_always);
  ckt::ResilientConfig two_retries;
  two_retries.max_retries = 2;
  const ckt::ResilientEvaluator faulty_resilient(faulty, two_retries);
  const EvalService faulty_service(faulty_resilient);
  const auto failed = faulty_service.evaluate(x);
  EXPECT_FALSE(failed.simulation_ok);
  EXPECT_EQ(failed.failure_kind, ckt::FailureKind::NonFinite);
  EXPECT_EQ(failed.retries, 2u);
  EXPECT_EQ(failed.cache, ckt::CacheOutcome::Miss);
}

TEST_F(ServiceFixture, CachedExposesEvaluatedDesigns) {
  EvalService service(counting);
  const Vec a = {0.1, 0.2, 0.3};
  const Vec b = {0.4, 0.5, 0.6};
  service.evaluate(a);
  service.evaluate(b);
  service.evaluate(a);  // hit: no new entry
  const auto cached = service.cached();
  ASSERT_EQ(cached.size(), 2u);
  EXPECT_EQ(cached[0].x, a);
  EXPECT_EQ(cached[1].x, b);
  EXPECT_EQ(cached[0].metrics, quad.evaluate(a).metrics);
}

TEST_F(ServiceFixture, CacheKeysAreBitExact) {
  EvalService service(counting);
  const Vec a = {0.1, 0.2, 0.3};
  const Vec b = {std::nextafter(0.1, 1.0), 0.2, 0.3};  // one ulp away
  const Vec neg_zero = {-0.0, 0.2, 0.3};
  const Vec pos_zero = {0.0, 0.2, 0.3};
  EXPECT_EQ(service.evaluate(a).cache, ckt::CacheOutcome::Miss);
  EXPECT_EQ(service.evaluate(b).cache, ckt::CacheOutcome::Miss);
  EXPECT_EQ(service.evaluate(a).cache, ckt::CacheOutcome::Hit);
  // -0.0 == +0.0, so the two zeros share one address.
  EXPECT_EQ(service.evaluate(neg_zero).cache, ckt::CacheOutcome::Miss);
  EXPECT_EQ(service.evaluate(pos_zero).cache, ckt::CacheOutcome::Hit);
  EXPECT_EQ(counting.calls.load(), 3);
}

/// Counts make_session() calls so the pool's reuse can be asserted.
class SessionCountingProblem final : public ckt::SizingProblem {
 public:
  explicit SessionCountingProblem(const ckt::SizingProblem& inner) : inner_(&inner) {}
  const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override {
    return inner_->parameter_names();
  }
  ckt::EvalResult evaluate(const Vec& x) const override { return inner_->evaluate(x); }
  std::unique_ptr<ckt::EvalSession> make_session() const override {
    sessions_created.fetch_add(1, std::memory_order_relaxed);
    return inner_->make_session();
  }

  mutable std::atomic<int> sessions_created{0};

 private:
  const ckt::SizingProblem* inner_;
};

TEST_F(ServiceFixture, SessionPoolCreatesAtMostOneSessionPerWorker) {
  SessionCountingProblem problem(quad);
  EvalServiceConfig config;
  config.num_threads = 2;
  EvalService service(problem, config);

  std::vector<Vec> designs;
  for (int i = 0; i < 8; ++i) designs.push_back({0.01 * i, 0.2, 0.3});
  service.evaluate_batch(designs, nullptr);
  service.evaluate_batch(designs, nullptr);  // all hits: no new sessions either way
  for (int i = 0; i < 8; ++i) designs[static_cast<std::size_t>(i)][0] = 0.5 + 0.01 * i;
  service.evaluate_batch(designs, nullptr);  // misses again: sessions come from the pool

  const int created = problem.sessions_created.load();
  EXPECT_GE(created, 1);
  EXPECT_LE(created, 2) << "at most one session per concurrent worker";

  const auto c = service.counters();
  EXPECT_EQ(c.hits + c.misses, c.requested);
  EXPECT_EQ(c.simulations, c.misses - c.coalesced);
}

TEST(EvalServiceSessions, CircuitBatchThroughSessionsMatchesPointPath) {
  ckt::TwoStageOta ota;
  EvalServiceConfig config;
  config.num_threads = 2;
  EvalService service(ota, config);

  maopt::Rng rng(123);
  std::vector<Vec> designs;
  for (int i = 0; i < 3; ++i) designs.push_back(ota.random_design(rng));
  designs.push_back(designs[0]);  // duplicate: coalesces or hits

  const auto results = service.evaluate_batch(designs, nullptr);
  ASSERT_EQ(results.size(), designs.size());
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const auto ref = ota.evaluate(designs[i]);
    EXPECT_EQ(results[i].simulation_ok, ref.simulation_ok) << "design " << i;
    EXPECT_EQ(results[i].metrics, ref.metrics) << "design " << i;
  }

  const auto c = service.counters();
  EXPECT_EQ(c.requested, 4u);
  EXPECT_EQ(c.hits + c.misses, c.requested);
  EXPECT_EQ(c.simulations, c.misses - c.coalesced);
  EXPECT_EQ(c.simulations, 3u) << "duplicate design must not re-simulate";
}

TEST(ServiceSweep, EvaluateAtUsesPerVariantCacheKeys) {
  ckt::testing::VariedAnalytic varied;
  CountingProblem counting(varied);
  EvalServiceConfig config;
  EvalService service(counting, config);

  const Vec x{0.4, 0.6};
  ckt::ProcessVariation corner;
  corner.nmos_vth_shift = 0.03;

  const auto nominal = service.evaluate(x);
  const auto at_corner = service.evaluate_at(x, corner);
  EXPECT_NE(nominal.metrics, at_corner.metrics);
  // A corner result must never be served from the nominal cache entry (or
  // vice versa), but repeats of either key are pure hits.
  EXPECT_EQ(service.evaluate(x).metrics, nominal.metrics);
  EXPECT_EQ(service.evaluate_at(x, corner).metrics, at_corner.metrics);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, 4u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 2u);
}

TEST(ServiceSweep, NominalEvaluateAtSharesTheNominalKey) {
  ckt::ConstrainedQuadratic quad(3);
  CountingProblem counting(quad);
  EvalService service(counting);
  const Vec x{0.3, 0.3, 0.3};
  service.evaluate(x);
  // A disabled variation is the nominal key: pure cache hit, no new sim.
  service.evaluate_at(x, ckt::ProcessVariation{});
  const auto c = service.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(counting.calls.load(), 1);
}

TEST(ServiceSweep, EvaluateVariantsMatchesDirectEvaluateAt) {
  ckt::testing::VariedAnalytic varied;
  EvalServiceConfig config;
  config.num_threads = 4;
  EvalService service(varied, config);

  std::vector<ckt::ProcessVariation> pvs(6);
  for (std::size_t k = 0; k < pvs.size(); ++k) {
    pvs[k].sigma_vth = 0.04;
    pvs[k].seed = k + 1;
  }
  const Vec x{0.2, 0.7};
  const auto batched = service.evaluate_variants(x, pvs);
  ASSERT_EQ(batched.size(), pvs.size());
  for (std::size_t k = 0; k < pvs.size(); ++k) {
    const auto direct = varied.evaluate_at(x, pvs[k]);
    EXPECT_EQ(batched[k].metrics, direct.metrics) << "variant " << k;
    EXPECT_TRUE(batched[k].simulation_ok) << "variant " << k;
  }
  // Re-running the same sweep is all cache hits.
  (void)service.evaluate_variants(x, pvs);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, 12u);
  EXPECT_EQ(c.hits, 6u);
  EXPECT_EQ(c.simulations, 6u);
}

TEST(ServiceSweep, ThrowingVariantIsReportedFailedNotPropagated) {
  ckt::testing::VariedAnalytic varied;
  ckt::FaultInjectionConfig fcfg;
  fcfg.throw_rate = 1.0;
  ckt::FaultInjectingProblem faulty(varied, fcfg);
  EvalService service(faulty);
  std::vector<ckt::ProcessVariation> pvs(3);
  for (std::size_t k = 0; k < pvs.size(); ++k) {
    pvs[k].sigma_vth = 0.02;
    pvs[k].seed = k;
  }
  std::vector<ckt::EvalResult> results;
  ASSERT_NO_THROW(results = service.evaluate_variants({0.5, 0.5}, pvs));
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_FALSE(r.simulation_ok);
    EXPECT_EQ(r.metrics, faulty.failure_metrics());
    EXPECT_EQ(r.failure_kind, ckt::FailureKind::Exception);
  }
}

TEST(ServiceSweep, SweepProblemOverServiceRunsBatched) {
  // The full stack: VariationSweepProblem hands every sweep to the service's
  // evaluate_variants, which fans corners out with per-variant caching.
  ckt::testing::VariedAnalytic varied;
  EvalServiceConfig config;
  config.num_threads = 4;
  EvalService service(varied, config);
  ckt::RobustProblem robust(service, ckt::RobustConfig{});

  const Vec x{0.25, 0.25};
  const auto via_service = robust.evaluate(x);
  ckt::RobustProblem serial(varied, ckt::RobustConfig{});
  const auto via_serial = serial.evaluate(x);
  ASSERT_TRUE(via_service.simulation_ok);
  EXPECT_EQ(via_service.metrics, via_serial.metrics);  // batched == serial, bitwise

  // Second sweep of the same design: all five corners served from cache.
  (void)robust.evaluate(x);
  const auto c = service.counters();
  EXPECT_EQ(c.requested, 10u);
  EXPECT_EQ(c.hits, 5u);
  EXPECT_EQ(c.simulations, 5u);
}

/// Keeps every sweep-variant event.
class VariantLog final : public obs::RunObserver {
 public:
  void on_sweep_variant_evaluated(const obs::SweepVariantEvaluated& event) override {
    events.push_back(event);
  }
  std::vector<obs::SweepVariantEvaluated> events;
};

TEST(ServiceSweep, BatchedSweepReportsSimulatedVariantSeconds) {
  // A cold cache makes the service simulate every variant of the sweep, so
  // every variant event must carry that simulation's time, not 0.
  ckt::TwoStageOta ota;
  EvalServiceConfig config;
  config.num_threads = 2;
  EvalService service(ota, config);
  ckt::YieldConfig yield_config;
  yield_config.mismatch.instances = 6;
  ckt::YieldProblem yield(service, yield_config);
  VariantLog log;
  yield.set_observer(&log);

  maopt::Rng rng(5);
  (void)yield.evaluate(ota.random_design(rng));
  EXPECT_EQ(service.counters().simulations, 6u);
  ASSERT_EQ(log.events.size(), 6u);
  for (const auto& event : log.events) EXPECT_GT(event.seconds, 0.0) << event.label;
}

}  // namespace
}  // namespace maopt::eval
