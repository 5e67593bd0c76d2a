#include <gtest/gtest.h>

#include "../support/mlp_reference.hpp"
#include "circuits/analytic_problems.hpp"
#include "core/critic.hpp"
#include "core/ma_optimizer.hpp"

namespace maopt::core {
namespace {

/// `critic`'s predicted raw metrics for the rows of `in`.
template <typename Q>
nn::Mat predict(Q& critic, const nn::Mat& in) {
  nn::Mat raw;
  critic.predict_into(in, raw);
  return raw;
}

struct EnsembleFixture : ::testing::Test {
  EnsembleFixture() : problem(3), scaler(problem.lower_bounds(), problem.upper_bounds()) {
    Rng rng(1);
    for (int i = 0; i < 40; ++i) {
      SimRecord r;
      r.x = problem.random_design(rng);
      r.metrics = problem.evaluate(r.x).metrics;
      records.push_back(std::move(r));
    }
    config.hidden = {24, 24};
    config.steps_per_round = 10;
  }
  ckt::ConstrainedQuadratic problem;
  nn::RangeScaler scaler;
  std::vector<SimRecord> records;
  CriticConfig config;
};

TEST_F(EnsembleFixture, ZeroMembersThrows) {
  Rng rng(2);
  EXPECT_THROW(CriticEnsemble(0, 3, 3, config, rng), std::invalid_argument);
}

TEST_F(EnsembleFixture, SingleMemberMatchesPlainCritic) {
  // Same rng stream -> the one member is identical to a directly-built critic.
  Rng rng_a(3), rng_b(3);
  CriticEnsemble ens(1, 3, 3, config, rng_a);
  Critic critic(3, 3, config, rng_b);
  ens.fit_normalizer(records);
  critic.fit_normalizer(records);
  nn::Mat in(1, 6, 0.1);
  const nn::Mat pe = predict(ens, in);
  const nn::Mat pc = predict(critic, in);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(pe(0, c), pc(0, c));
}

TEST_F(EnsembleFixture, PredictionIsMeanOfMembers) {
  Rng rng(4);
  CriticEnsemble ens(3, 3, 3, config, rng);
  ens.fit_normalizer(records);
  nn::Mat in(2, 6, 0.2);
  const nn::Mat avg = predict(ens, in);
  // Averaging property is hard to check without member access; instead use
  // determinism: two identical ensembles agree.
  Rng rng2(4);
  CriticEnsemble ens2(3, 3, 3, config, rng2);
  ens2.fit_normalizer(records);
  const nn::Mat avg2 = predict(ens2, in);
  for (std::size_t k = 0; k < avg.data().size(); ++k)
    EXPECT_DOUBLE_EQ(avg.data()[k], avg2.data()[k]);
}

TEST_F(EnsembleFixture, TrainingReducesLossAcrossMembers) {
  Rng rng(5);
  CriticEnsemble ens(2, 3, 3, config, rng);
  ens.fit_normalizer(records);
  PseudoSampleBatcher batcher(records, scaler);
  Rng trng(6);
  const double first = ens.train_round(batcher, trng);
  double last = first;
  for (int i = 0; i < 15; ++i) last = ens.train_round(batcher, trng);
  EXPECT_LT(last, first);
}

TEST_F(EnsembleFixture, ActionGradientAveragesMatchFiniteDifference) {
  Rng rng(7);
  CriticEnsemble ens(2, 3, 3, config, rng);
  ens.fit_normalizer(records);
  PseudoSampleBatcher batcher(records, scaler);
  Rng trng(8);
  ens.train_round(batcher, trng);

  const Vec w{1.0, -0.5, 0.25};
  nn::Mat in(1, 6, 0.15);
  nn::Mat dl(1, 3), da;
  for (std::size_t c = 0; c < 3; ++c) dl(0, c) = w[c];
  testing::ensemble_action_gradient(ens, in, dl, da);

  const double eps = 1e-6;
  for (std::size_t c = 0; c < 3; ++c) {
    nn::Mat inp = in, inm = in;
    inp(0, 3 + c) += eps;
    inm(0, 3 + c) -= eps;
    const nn::Mat rp = predict(ens, inp);
    const nn::Mat rm = predict(ens, inm);
    double lp = 0.0, lm = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      lp += w[j] * rp(0, j);
      lm += w[j] * rm(0, j);
    }
    EXPECT_NEAR(da(0, c), (lp - lm) / (2 * eps), 1e-4) << c;
  }
}

TEST_F(EnsembleFixture, TrainRoundBitIdenticalAcrossThreadCounts) {
  // Each member trains on its own derive_seed-derived stream, so the pooled
  // and serial paths must produce *identical* parameters — not just close.
  Rng rng_a(11), rng_b(11);
  CriticEnsemble serial(3, 3, 3, config, rng_a);
  CriticEnsemble pooled(3, 3, 3, config, rng_b);
  PseudoSampleBatcher batcher(records, scaler);
  ThreadPool pool1(1), pool4(4);
  serial.fit_normalizer(records, &pool1);
  pooled.fit_normalizer(records, &pool4);

  Rng trng_a(12), trng_b(12);
  double loss_a = 0.0, loss_b = 0.0;
  for (int round = 0; round < 3; ++round) {
    loss_a = serial.train_round(batcher, trng_a, &pool1);
    loss_b = pooled.train_round(batcher, trng_b, &pool4);
  }
  EXPECT_DOUBLE_EQ(loss_a, loss_b);
  for (std::size_t m = 0; m < serial.size(); ++m) {
    const auto pa = serial.member(m).network().params();
    const auto pb = pooled.member(m).network().params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t p = 0; p < pa.size(); ++p) {
      ASSERT_EQ(pa[p].value->size(), pb[p].value->size());
      for (std::size_t i = 0; i < pa[p].value->size(); ++i)
        ASSERT_EQ((*pa[p].value)[i], (*pb[p].value)[i]) << "member " << m << " param " << p;
    }
  }
}

TEST_F(EnsembleFixture, TrainRoundAdvancesCallerRngIndependentlyOfMemberCount) {
  // The caller's rng must advance identically whether the ensemble has 1 or
  // 4 members, so optimizer runs stay reproducible across ablation configs.
  Rng rng_a(13), rng_b(13);
  CriticEnsemble small(1, 3, 3, config, rng_a);
  CriticEnsemble large(4, 3, 3, config, rng_b);
  small.fit_normalizer(records);
  large.fit_normalizer(records);
  PseudoSampleBatcher batcher(records, scaler);
  Rng trng_a(14), trng_b(14);
  small.train_round(batcher, trng_a);
  large.train_round(batcher, trng_b);
  EXPECT_EQ(trng_a.next(), trng_b.next());
}

TEST_F(EnsembleFixture, ParameterCountScalesLinearly) {
  Rng rng(9);
  CriticEnsemble one(1, 3, 3, config, rng);
  CriticEnsemble four(4, 3, 3, config, rng);
  EXPECT_EQ(four.num_parameters(), 4 * one.num_parameters());
}

TEST_F(EnsembleFixture, MaOptimizerRunsWithEnsemble) {
  Rng rng(10);
  auto init = sample_initial_set(problem, 15, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : init) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(problem, rows);

  MaOptConfig cfg = MaOptConfig::ma_opt();
  cfg.num_critics = 2;
  cfg.critic.hidden = {24, 24};
  cfg.critic.steps_per_round = 8;
  cfg.actor.hidden = {16, 16};
  cfg.actor.steps_per_round = 5;
  cfg.near_sampling.num_samples = 100;
  MaOptimizer opt(cfg);
  const RunHistory h = opt.run(problem, init, fom, {.seed = 3, .simulation_budget = 12});
  EXPECT_EQ(h.simulations_used(), 12u);
}

}  // namespace
}  // namespace maopt::core
