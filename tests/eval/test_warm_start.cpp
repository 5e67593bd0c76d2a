// Warm start end-to-end: a run seeded from a prior run's cached results must
// match-or-beat a cold run at the same budget, and rerunning the same seed
// over a populated cache must reproduce the cold trajectory bit-for-bit
// (cache hits remove wall-clock, never change results).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "circuits/analytic_problems.hpp"
#include "core/ma_optimizer.hpp"
#include "eval/eval_service.hpp"
#include "obs/observer.hpp"

namespace maopt::core {
namespace {

namespace fs = std::filesystem;

MaOptConfig test_config(MaOptConfig base) {
  base.critic.hidden = {32, 32};
  base.critic.steps_per_round = 20;
  base.actor.hidden = {24, 24};
  base.actor.steps_per_round = 10;
  base.near_sampling.num_samples = 200;
  return base;
}

struct WarmStartFixture : ::testing::Test {
  void SetUp() override {
    cache_dir = (fs::temp_directory_path() /
                 ("maopt_warm_" +
                  std::string(::testing::UnitTest::GetInstance()->current_test_info()->name())))
                    .string();
    fs::remove_all(cache_dir);

    Rng rng(1);
    initial = sample_initial_set(problem, 25, rng);
    std::vector<linalg::Vec> rows;
    for (const auto& r : initial) rows.push_back(r.metrics);
    fom = std::make_unique<ckt::FomEvaluator>(ckt::FomEvaluator::fit_reference(problem, rows));
  }
  void TearDown() override { fs::remove_all(cache_dir); }

  std::unique_ptr<eval::EvalService> make_service() {
    eval::EvalServiceConfig config;
    config.cache_dir = cache_dir;
    return std::make_unique<eval::EvalService>(problem, config);
  }

  /// The initial set followed by `service`'s warm-start records.
  std::vector<SimRecord> warmed(const eval::EvalService& service, std::size_t max = 256) const {
    std::vector<SimRecord> start = initial;
    for (SimRecord& r : warm_start_records(service, initial, service, *fom, max))
      start.push_back(std::move(r));
    return start;
  }

  RunHistory run(const ckt::SizingProblem& target, std::uint64_t seed, std::size_t budget,
                 const std::vector<SimRecord>& start, obs::RunObserver* observer = nullptr) {
    MaOptimizer opt(test_config(MaOptConfig::ma_opt()));
    RunOptions options;
    options.seed = seed;
    options.simulation_budget = budget;
    options.observer = observer;
    return opt.run(target, start, *fom, options);
  }
  RunHistory run(const ckt::SizingProblem& target, std::uint64_t seed, std::size_t budget) {
    return run(target, seed, budget, initial);
  }

  ckt::ConstrainedQuadratic problem{4};
  std::vector<SimRecord> initial;
  std::unique_ptr<ckt::FomEvaluator> fom;
  std::string cache_dir;
};

TEST_F(WarmStartFixture, WarmRunDominatesColdRunAtEqualBudget) {
  // Prior run populates the journal with 40 evaluated designs.
  {
    auto service = make_service();
    const RunHistory prior = run(*service, 7, 40);
    EXPECT_EQ(prior.simulations_used(), 40u);
    EXPECT_GT(service->cached().size(), 0u);
  }

  const RunHistory cold = run(problem, 21, 12);
  auto service = make_service();  // fresh service, same journal on disk
  const RunHistory warm = run(*service, 21, 12, warmed(*service));

  // The cached results were absorbed as extra initial samples.
  EXPECT_GT(warm.num_initial, cold.num_initial);
  EXPECT_EQ(warm.simulations_used(), cold.simulations_used());

  // Starting from a superset of the cold run's information, the warm run's
  // best-so-far can never be behind at any point of the budget.
  ASSERT_EQ(warm.best_fom_after.size(), cold.best_fom_after.size());
  for (std::size_t k = 0; k < cold.best_fom_after.size(); ++k)
    EXPECT_LE(warm.best_fom_after[k], cold.best_fom_after[k] + 1e-12) << "simulation " << k;
}

TEST_F(WarmStartFixture, SameSeedOverPopulatedCacheIsBitIdenticalWithHits) {
  auto first_service = make_service();
  const RunHistory first = run(*first_service, 33, 18);
  const auto first_counters = first_service->counters();
  EXPECT_EQ(first_counters.hits + first_counters.misses, first_counters.requested);

  auto second_service = make_service();
  const RunHistory second = run(*second_service, 33, 18);
  const auto c = second_service->counters();
  EXPECT_GT(c.hits, 0u) << "rerun over a populated journal must hit the cache";

  // Hits replace simulations, not results: the trajectory is bit-identical.
  ASSERT_EQ(second.records.size(), first.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_EQ(second.records[i].x, first.records[i].x) << "record " << i;
    EXPECT_EQ(second.records[i].metrics, first.records[i].metrics) << "record " << i;
  }
  ASSERT_EQ(second.best_fom_after.size(), first.best_fom_after.size());
  for (std::size_t k = 0; k < first.best_fom_after.size(); ++k)
    EXPECT_EQ(second.best_fom_after[k], first.best_fom_after[k]);
}

TEST_F(WarmStartFixture, WarmStartIsNoOpOnEmptyCache) {
  auto service = make_service();  // no journal on disk yet
  EXPECT_TRUE(warm_start_records(*service, initial, *service, *fom, 256).empty());
  const RunHistory plain = run(problem, 5, 10);
  const RunHistory warm = run(*service, 5, 10, warmed(*service));
  EXPECT_EQ(warm.num_initial, plain.num_initial);
  ASSERT_EQ(warm.records.size(), plain.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i)
    EXPECT_EQ(warm.records[i].x, plain.records[i].x);
}

TEST_F(WarmStartFixture, WarmStartRespectsCapAndDeduplicates) {
  {
    auto service = make_service();
    run(*service, 11, 30);
  }
  auto service = make_service();
  const std::vector<SimRecord> warm = warm_start_records(*service, initial, *service, *fom, 5);
  EXPECT_LE(warm.size(), 5u);
  EXPECT_GT(warm.size(), 0u);
  for (const SimRecord& w : warm)
    for (const SimRecord& r : initial) EXPECT_NE(w.x, r.x) << "warm record repeats the initial set";
  for (std::size_t i = 1; i < warm.size(); ++i) EXPECT_LE(warm[i - 1].fom, warm[i].fom);

  RunOptions options;
  options.seed = 11;
  options.simulation_budget = 8;
  MaOptimizer opt(test_config(MaOptConfig::ma_opt2()));
  const RunHistory h = opt.run(*service, warmed(*service, 5), *fom, options);
  EXPECT_EQ(h.num_initial, initial.size() + warm.size());
}

/// Pass-through decorator that knows nothing of services or batching: it
/// forwards evaluate() only and relies on the SizingProblem defaults.
class PassThrough final : public ckt::SizingProblem {
 public:
  explicit PassThrough(const ckt::SizingProblem& inner) : inner_(&inner) {}
  const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const linalg::Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const linalg::Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  ckt::EvalResult evaluate(const linalg::Vec& x) const override { return inner_->evaluate(x); }

 private:
  const ckt::SizingProblem* inner_;
};

/// Keeps the simulation events and the final counters of a run.
class SimLog final : public obs::RunObserver {
 public:
  void on_simulation_completed(const obs::SimulationCompleted& event) override {
    sims.push_back(event);
  }
  void on_run_finished(const obs::RunFinished& event) override { counters = event.counters; }
  std::vector<obs::SimulationCompleted> sims;
  obs::RunCounters counters;
};

TEST_F(WarmStartFixture, DecoratorAboveServiceKeepsProvenance) {
  auto service = make_service();
  const RunHistory first = run(*service, 33, 18);

  // Same seed again, through a decorator the optimizer cannot see past:
  // every simulation is a cache hit, and the events must say so.
  const PassThrough decorated(*service);
  SimLog log;
  const RunHistory second = run(decorated, 33, 18, initial, &log);
  EXPECT_EQ(second.best_fom_after, first.best_fom_after);
  ASSERT_EQ(log.sims.size(), 18u);
  for (const auto& event : log.sims) {
    EXPECT_TRUE(event.cache_hit) << "simulation " << event.index;
    EXPECT_FALSE(event.coalesced) << "simulation " << event.index;
  }
  EXPECT_EQ(log.counters.simulations, 18u);
  EXPECT_EQ(log.counters.cache_hits, log.counters.simulations);
  EXPECT_EQ(log.counters.cache_misses, 0u);
}

}  // namespace
}  // namespace maopt::core
