#include "core/ma_optimizer.hpp"

#include <gtest/gtest.h>

#include "../support/constrained_rosenbrock.hpp"
#include "circuits/analytic_problems.hpp"
#include "circuits/two_stage_ota.hpp"
#include "core/random_search.hpp"

namespace maopt::core {
namespace {

/// Shrunken networks/rounds so unit tests stay fast; the algorithmic paths
/// (multi-actor, shared/individual sets, near-sampling) are all exercised.
MaOptConfig test_config(MaOptConfig base) {
  base.critic.hidden = {32, 32};
  base.critic.steps_per_round = 20;
  base.actor.hidden = {24, 24};
  base.actor.steps_per_round = 10;
  base.near_sampling.num_samples = 200;
  return base;
}

struct OptFixture : ::testing::Test {
  OptFixture() : problem(4) {
    Rng rng(1);
    initial = sample_initial_set(problem, 25, rng);
    std::vector<linalg::Vec> rows;
    for (const auto& r : initial) rows.push_back(r.metrics);
    fom = std::make_unique<ckt::FomEvaluator>(ckt::FomEvaluator::fit_reference(problem, rows));
  }
  ckt::ConstrainedQuadratic problem;
  std::vector<SimRecord> initial;
  std::unique_ptr<ckt::FomEvaluator> fom;
};

TEST_F(OptFixture, PresetConfigsMatchPaperRoles) {
  EXPECT_EQ(MaOptConfig::dnn_opt().num_actors, 1);
  EXPECT_FALSE(MaOptConfig::dnn_opt().use_near_sampling);
  EXPECT_FALSE(MaOptConfig::ma_opt1().shared_elite_set);
  EXPECT_EQ(MaOptConfig::ma_opt1().num_actors, 3);
  EXPECT_TRUE(MaOptConfig::ma_opt2().shared_elite_set);
  EXPECT_FALSE(MaOptConfig::ma_opt2().use_near_sampling);
  EXPECT_TRUE(MaOptConfig::ma_opt().use_near_sampling);
  EXPECT_EQ(MaOptConfig::ma_opt().t_ns, 5);
  EXPECT_EQ(MaOptConfig::ma_opt().near_sampling.num_samples, 2000);
}

TEST_F(OptFixture, RespectsSimulationBudgetExactly) {
  for (const auto& cfg : {MaOptConfig::dnn_opt(), MaOptConfig::ma_opt1(),
                          MaOptConfig::ma_opt2(), MaOptConfig::ma_opt()}) {
    MaOptimizer opt(test_config(cfg));
    const RunHistory h = opt.run(problem, initial, *fom, {.seed = 5, .simulation_budget = 20});
    EXPECT_EQ(h.simulations_used(), 20u) << cfg.name;
    EXPECT_EQ(h.best_fom_after.size(), 20u) << cfg.name;
  }
}

TEST_F(OptFixture, BestFomTrajectoryMonotone) {
  MaOptimizer opt(test_config(MaOptConfig::ma_opt()));
  const RunHistory h = opt.run(problem, initial, *fom, {.seed = 2, .simulation_budget = 30});
  for (std::size_t i = 1; i < h.best_fom_after.size(); ++i)
    EXPECT_LE(h.best_fom_after[i], h.best_fom_after[i - 1]);
}

TEST_F(OptFixture, ImprovesOverInitialBest) {
  auto recs = initial;
  annotate_foms(recs, problem, *fom);
  double init_best = 1e300;
  for (const auto& r : recs) init_best = std::min(init_best, r.fom);

  MaOptimizer opt(test_config(MaOptConfig::ma_opt()));
  const RunHistory h = opt.run(problem, initial, *fom, {.seed = 3, .simulation_budget = 40});
  EXPECT_LT(h.best_fom_after.back(), init_best);
}

TEST_F(OptFixture, DeterministicForFixedSeed) {
  MaOptimizer a(test_config(MaOptConfig::ma_opt()));
  MaOptimizer b(test_config(MaOptConfig::ma_opt()));
  const RunHistory ha = a.run(problem, initial, *fom, {.seed = 77, .simulation_budget = 15});
  const RunHistory hb = b.run(problem, initial, *fom, {.seed = 77, .simulation_budget = 15});
  ASSERT_EQ(ha.records.size(), hb.records.size());
  for (std::size_t i = 0; i < ha.records.size(); ++i) EXPECT_EQ(ha.records[i].x, hb.records[i].x);
}

TEST_F(OptFixture, NearSamplingIterationsHappenOnceFeasible) {
  // The quadratic problem has feasible designs in any moderate sample, so
  // NS fires every T_NS iterations and its timer accumulates.
  MaOptimizer opt(test_config(MaOptConfig::ma_opt()));
  const RunHistory h = opt.run(problem, initial, *fom, {.seed = 4, .simulation_budget = 30});
  EXPECT_GT(h.ns_seconds, 0.0);
}

TEST_F(OptFixture, NoNearSamplingInMaOpt2) {
  MaOptimizer opt(test_config(MaOptConfig::ma_opt2()));
  const RunHistory h = opt.run(problem, initial, *fom, {.seed = 4, .simulation_budget = 30});
  EXPECT_DOUBLE_EQ(h.ns_seconds, 0.0);
}

TEST_F(OptFixture, CandidatesRespectBoundsAndIntegrality) {
  ckt::testing::ConstrainedRosenbrock rosen(4);
  Rng rng(6);
  auto init = sample_initial_set(rosen, 20, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : init) rows.push_back(r.metrics);
  const auto rfom = ckt::FomEvaluator::fit_reference(rosen, rows);
  MaOptimizer opt(test_config(MaOptConfig::ma_opt()));
  const RunHistory h = opt.run(rosen, init, rfom, {.seed = 8, .simulation_budget = 25});
  for (std::size_t i = init.size(); i < h.records.size(); ++i) {
    const auto& x = h.records[i].x;
    for (std::size_t c = 0; c < x.size(); ++c) {
      EXPECT_GE(x[c], rosen.lower_bounds()[c]);
      EXPECT_LE(x[c], rosen.upper_bounds()[c]);
    }
    EXPECT_DOUBLE_EQ(x.back(), std::round(x.back()));
  }
}

TEST_F(OptFixture, BeatsRandomSearchOnAverage) {
  // Medium-size config: large enough for learning to actually kick in,
  // deterministic seeds so the comparison is stable.
  MaOptConfig cfg = MaOptConfig::ma_opt();
  cfg.critic.hidden = {64, 64};
  cfg.critic.steps_per_round = 40;
  cfg.actor.hidden = {48, 48};
  cfg.actor.steps_per_round = 20;
  cfg.near_sampling.num_samples = 500;

  double ma_total = 0.0, rnd_total = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(seed + 100);
    auto init = sample_initial_set(problem, 25, rng);
    std::vector<linalg::Vec> rows;
    for (const auto& r : init) rows.push_back(r.metrics);
    const auto f = ckt::FomEvaluator::fit_reference(problem, rows);
    MaOptimizer ma(cfg);
    RandomSearch rnd;
    ma_total += ma.run(problem, init, f, {.seed = seed, .simulation_budget = 45}).best_fom_after.back();
    rnd_total += rnd.run(problem, init, f, {.seed = seed, .simulation_budget = 45}).best_fom_after.back();
  }
  EXPECT_LT(ma_total, rnd_total);
}

TEST_F(OptFixture, TimersAccountedAndHistoryAnnotated) {
  MaOptimizer opt(test_config(MaOptConfig::ma_opt2()));
  const RunHistory h = opt.run(problem, initial, *fom, {.seed = 9, .simulation_budget = 12});
  EXPECT_GT(h.train_seconds, 0.0);
  EXPECT_GT(h.wall_seconds, 0.0);
  EXPECT_EQ(h.algorithm, "MA-Opt2");
  for (const auto& r : h.records) {
    EXPECT_TRUE(std::isfinite(r.fom));
  }
  EXPECT_NE(h.best(), nullptr);
}

TEST_F(OptFixture, BestFeasibleReturnsLowestTargetAmongFeasible) {
  MaOptimizer opt(test_config(MaOptConfig::dnn_opt()));
  const RunHistory h = opt.run(problem, initial, *fom, {.seed = 10, .simulation_budget = 20});
  const SimRecord* bf = h.best_feasible();
  if (bf != nullptr) {
    for (const auto& r : h.records) {
      if (r.feasible) {
        EXPECT_LE(bf->metrics[0], r.metrics[0]);
      }
    }
  }
}

TEST(MaOptThreads, OtaTrajectoryIdenticalForEveryThreadCount) {
  // The critic round is partitioned across the optimizer's pool; neither it
  // nor the actor fan-out may make the trajectory depend on the pool size.
  ckt::TwoStageOta problem;
  Rng rng(3);
  const auto init = sample_initial_set(problem, 20, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : init) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(problem, rows);
  MaOptConfig config = MaOptConfig::ma_opt();
  config.critic.steps_per_round = 10;
  config.actor.steps_per_round = 5;
  config.near_sampling.num_samples = 300;
  config.t_ns = 2;
  std::vector<RunHistory> runs;
  for (const std::size_t threads : {1, 2, 3, 8}) {
    config.num_threads = threads;
    runs.push_back(
        MaOptimizer(config).run(problem, init, fom, {.seed = 4, .simulation_budget = 10}));
  }
  for (std::size_t k = 1; k < runs.size(); ++k) {
    ASSERT_EQ(runs[k].records.size(), runs[0].records.size()) << "run " << k;
    for (std::size_t i = 0; i < runs[0].records.size(); ++i) {
      EXPECT_EQ(runs[k].records[i].x, runs[0].records[i].x) << "run " << k << " record " << i;
      EXPECT_EQ(runs[k].records[i].fom, runs[0].records[i].fom) << "run " << k << " record " << i;
    }
    EXPECT_EQ(runs[k].best_fom_after, runs[0].best_fom_after) << "run " << k;
  }
}

}  // namespace
}  // namespace maopt::core
