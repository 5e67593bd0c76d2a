// Population-scale robustness acceptance tests: optimizers driven over
// corner (RobustProblem) and Monte Carlo yield (YieldProblem) sweeps with
// injected faults must complete their full budget, degrade per policy,
// record sweep provenance in the history, and replay bit-identical from
// checkpoints.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "../support/variation_test_problems.hpp"
#include "circuits/resilient_problem.hpp"
#include "circuits/robust_problem.hpp"
#include "core/ma_optimizer.hpp"
#include "eval/eval_service.hpp"

namespace maopt::core {
namespace {

MaOptConfig small_config(MaOptConfig base) {
  base.critic.hidden = {24, 24};
  base.critic.steps_per_round = 10;
  base.actor.hidden = {16, 16};
  base.actor.steps_per_round = 5;
  base.near_sampling.num_samples = 100;
  return base;
}

/// Faulty corner stack at the given mixed fault rate (no hangs — these tests
/// exercise the sweep policies, not the deadline machinery).
ckt::FaultInjectionConfig fault_config(double rate) {
  ckt::FaultInjectionConfig cfg;
  cfg.throw_rate = rate / 2;
  cfg.nan_rate = rate / 4;
  cfg.garbage_rate = rate / 4;
  cfg.seed = 17;
  return cfg;
}

struct RobustWorkloadFixture : ::testing::Test {
  void run_and_check(const ckt::SizingProblem& problem, std::uint64_t seed, std::size_t budget,
                     RunHistory* out) {
    Rng rng(1);
    auto initial = sample_initial_set(problem, 10, rng);
    std::vector<linalg::Vec> rows;
    for (const auto& r : initial) rows.push_back(r.metrics);
    const auto fom = ckt::FomEvaluator::fit_reference(problem, rows);
    MaOptimizer opt(small_config(MaOptConfig::ma_opt()));
    RunHistory h;
    ASSERT_NO_THROW(h = opt.run(problem, initial, fom, {.seed = seed, .simulation_budget = budget}));
    EXPECT_FALSE(h.aborted);
    EXPECT_EQ(h.simulations_used(), budget);
    for (const auto& r : h.records) {
      EXPECT_TRUE(std::isfinite(r.fom));
      for (const double m : r.metrics) EXPECT_TRUE(std::isfinite(m));
    }
    if (out != nullptr) *out = h;
  }

  ckt::testing::VariedAnalytic inner;
};

TEST_F(RobustWorkloadFixture, WorstCornerRunCompletesFullBudgetAtFiftyPercentFaults) {
  const ckt::FaultInjectingProblem faulty(inner, fault_config(0.5));
  ckt::RobustConfig config;  // worst-case + penalize-failed
  const ckt::RobustProblem robust(faulty, config);

  RunHistory h;
  run_and_check(robust, 11, 25, &h);
  EXPECT_GT(faulty.injected(), 0u);

  // Provenance: every record is a 5-corner aggregate, and with a 50% fault
  // rate a good share of sweeps must be degraded or failed.
  std::size_t with_losses = 0;
  for (const auto& r : h.records) {
    EXPECT_EQ(r.variants_total, 5u);
    if (r.variants_failed > 0) ++with_losses;
    if (r.degraded) {
      EXPECT_TRUE(r.simulation_ok);
      EXPECT_GT(r.variants_failed, 0u);
    }
  }
  EXPECT_GT(with_losses, 0u);
  const ckt::SweepStats stats = robust.stats();
  EXPECT_EQ(stats.sweeps, h.records.size());
  EXPECT_EQ(stats.variants_ok + stats.variants_failed, 5 * h.records.size());
}

TEST_F(RobustWorkloadFixture, YieldRunWith64InstancesCompletesAtFiftyPercentFaults) {
  const ckt::FaultInjectingProblem faulty(inner, fault_config(0.5));
  ckt::YieldConfig config;
  config.mismatch.instances = 64;
  config.mismatch.sigma_vth = 0.05;
  // With per-instance fault draws at 50%, penalize-failed keeps the
  // evaluation usable while the quantile absorbs the losses.
  config.policy.yield_target = 0.9;
  const ckt::YieldProblem yield(faulty, config);

  RunHistory h;
  run_and_check(yield, 5, 15, &h);
  for (const auto& r : h.records) EXPECT_EQ(r.variants_total, 64u);
  const ckt::SweepStats stats = yield.stats();
  EXPECT_EQ(stats.sweeps, h.records.size());
  EXPECT_GT(stats.variants_failed, 0u);
  EXPECT_GT(stats.variants_ok, 0u);
}

TEST_F(RobustWorkloadFixture, SweepTrajectoriesAreReplayDeterministic) {
  for (const double rate : {0.0, 0.3, 0.5}) {
    const ckt::FaultInjectingProblem f1(inner, fault_config(rate));
    const ckt::FaultInjectingProblem f2(inner, fault_config(rate));
    const ckt::RobustProblem r1(f1, ckt::RobustConfig{});
    const ckt::RobustProblem r2(f2, ckt::RobustConfig{});
    RunHistory a, b;
    run_and_check(r1, 23, 18, &a);
    run_and_check(r2, 23, 18, &b);
    ASSERT_EQ(a.records.size(), b.records.size()) << "rate " << rate;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      EXPECT_EQ(a.records[i].x, b.records[i].x) << "rate " << rate << " record " << i;
      EXPECT_EQ(a.records[i].metrics, b.records[i].metrics)
          << "rate " << rate << " record " << i;
      EXPECT_EQ(a.records[i].variants_failed, b.records[i].variants_failed)
          << "rate " << rate << " record " << i;
    }
    EXPECT_EQ(a.best_fom_after, b.best_fom_after) << "rate " << rate;
  }
}

TEST_F(RobustWorkloadFixture, CheckpointResumeReplaysSweepRunBitIdentical) {
  const std::string path = "/tmp/maopt_robust_resume_test.ckpt";
  std::remove(path.c_str());

  const ckt::FaultInjectingProblem faulty(inner, fault_config(0.5));
  const ckt::RobustProblem robust(faulty, ckt::RobustConfig{});

  Rng rng(1);
  auto initial = sample_initial_set(robust, 10, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : initial) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(robust, rows);

  const std::size_t budget = 20;
  MaOptConfig cfg = small_config(MaOptConfig::ma_opt());
  MaOptimizer ref_opt(cfg);
  const RunHistory ref = ref_opt.run(robust, initial, fom, {.seed = 31, .simulation_budget = budget});

  // The cadence must not divide the terminal iteration, so the last snapshot
  // on disk is exactly what a run killed mid-budget would leave behind.
  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 3;
  MaOptimizer ckpt_opt(cfg);
  (void)ckpt_opt.run(robust, initial, fom, {.seed = 31, .simulation_budget = budget});

  const RunCheckpoint snapshot = load_checkpoint(path);
  EXPECT_EQ(snapshot.version, kCheckpointFormatVersion);
  ASSERT_LT(snapshot.history.simulations_used(), budget);  // genuinely mid-run
  // Provenance survives the checkpoint round trip.
  for (const auto& r : snapshot.history.records) EXPECT_EQ(r.variants_total, 5u);

  MaOptimizer resumed_opt(cfg);
  const RunHistory resumed = resumed_opt.resume(robust, snapshot, fom, budget);
  ASSERT_EQ(resumed.records.size(), ref.records.size());
  for (std::size_t i = 0; i < ref.records.size(); ++i) {
    EXPECT_EQ(resumed.records[i].x, ref.records[i].x) << "record " << i;
    EXPECT_EQ(resumed.records[i].metrics, ref.records[i].metrics) << "record " << i;
    EXPECT_EQ(resumed.records[i].degraded, ref.records[i].degraded) << "record " << i;
    EXPECT_EQ(resumed.records[i].variants_failed, ref.records[i].variants_failed)
        << "record " << i;
    EXPECT_EQ(resumed.records[i].variants_total, ref.records[i].variants_total)
        << "record " << i;
  }
  EXPECT_EQ(resumed.best_fom_after, ref.best_fom_after);
  std::remove(path.c_str());
}

TEST_F(RobustWorkloadFixture, BatchedServiceStackMatchesSerialTrajectory) {
  // Full production stack (faults -> EvalService backend -> RobustProblem)
  // against the serial sweep: identical optimizer trajectories, fewer
  // simulator calls on re-visited corners.
  const ckt::FaultInjectingProblem faulty(inner, fault_config(0.3));

  eval::EvalServiceConfig scfg;
  scfg.num_threads = 4;
  const eval::EvalService service(faulty, scfg);
  const ckt::RobustProblem batched(service, ckt::RobustConfig{});
  const ckt::RobustProblem serial(faulty, ckt::RobustConfig{});

  RunHistory a, b;
  run_and_check(batched, 41, 16, &a);
  run_and_check(serial, 41, 16, &b);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].x, b.records[i].x) << "record " << i;
    EXPECT_EQ(a.records[i].metrics, b.records[i].metrics) << "record " << i;
  }
  const auto counters = service.counters();
  EXPECT_GT(counters.requested, 0u);
  EXPECT_EQ(counters.hits + counters.misses, counters.requested);
}

}  // namespace
}  // namespace maopt::core
