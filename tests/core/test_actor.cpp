#include "core/actor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/analytic_problems.hpp"
#include "common/check.hpp"

namespace maopt::core {
namespace {

/// Action mu(x) of the actor's network for a single unit-space state.
Vec propose(Actor& actor, const Vec& x_unit) {
  nn::Mat in(1, x_unit.size());
  for (std::size_t c = 0; c < x_unit.size(); ++c) in(0, c) = x_unit[c];
  const nn::Mat& out = actor.network().forward(in);
  return Vec(out.row(0).begin(), out.row(0).end());
}

struct ActorFixture : ::testing::Test {
  ActorFixture()
      : problem(3),
        scaler(problem.lower_bounds(), problem.upper_bounds()),
        fom(problem, 1.0) {
    Rng rng(1);
    for (int i = 0; i < 60; ++i) {
      SimRecord r;
      r.x = problem.random_design(rng);
      r.metrics = problem.evaluate(r.x).metrics;
      r.simulation_ok = true;
      r.fom = fom(r.metrics);
      records.push_back(std::move(r));
    }
    population_unit = PseudoSampleBatcher(records, scaler).unit_designs();
    critic_config.hidden = {48, 48};
    critic_config.steps_per_round = 40;
    actor_config.hidden = {32, 32};
    actor_config.steps_per_round = 30;
    actor_config.lambda = 20.0;
  }

  Critic trained_critic(std::uint64_t seed, int rounds = 25) {
    Rng rng(seed);
    Critic critic(3, 3, critic_config, rng);
    critic.fit_normalizer(records);
    PseudoSampleBatcher batcher(records, scaler);
    Rng train_rng(seed + 1);
    for (int i = 0; i < rounds; ++i) critic.train_round(batcher, train_rng);
    return critic;
  }

  ckt::ConstrainedQuadratic problem;
  nn::RangeScaler scaler;
  ckt::FomEvaluator fom;
  std::vector<SimRecord> records;
  nn::Mat population_unit;  ///< records in unit space, as the optimizer passes them
  CriticConfig critic_config;
  ActorConfig actor_config;
};

TEST_F(ActorFixture, ProposesBoundedActions) {
  Rng rng(2);
  Actor actor(3, actor_config, rng);
  const Vec a = propose(actor, {0.1, -0.2, 0.5});
  ASSERT_EQ(a.size(), 3u);
  for (const double v : a) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST_F(ActorFixture, TrainingReducesLoss) {
  Critic critic = trained_critic(3);
  Rng rng(4);
  Actor actor(3, actor_config, rng);
  const Vec lb(3, -1.0), ub(3, 1.0);
  Rng train_rng(5);
  const double first =
      actor.train_round(critic, fom, population_unit, lb, ub, train_rng);
  double last = first;
  for (int i = 0; i < 8; ++i)
    last = actor.train_round(critic, fom, population_unit, lb, ub, train_rng);
  EXPECT_LT(last, first);
}

TEST_F(ActorFixture, TrainedProposalsReduceTrueFom) {
  // After training against a good critic, applying the actor's action to a
  // random state should (on average) lower the true objective.
  Critic critic = trained_critic(6);
  Rng rng(7);
  Actor actor(3, actor_config, rng);
  const Vec lb(3, -1.0), ub(3, 1.0);
  Rng train_rng(8);
  for (int i = 0; i < 15; ++i)
    actor.train_round(critic, fom, population_unit, lb, ub, train_rng);

  Rng test_rng(9);
  double before = 0.0, after = 0.0;
  const int n = 25;
  for (int k = 0; k < n; ++k) {
    const Vec x = problem.random_design(test_rng);
    const Vec u = scaler.to_unit(x);
    const Vec a = propose(actor, u);
    Vec un(3);
    for (std::size_t c = 0; c < 3; ++c) un[c] = std::clamp(u[c] + a[c], -1.0, 1.0);
    const Vec xn = problem.clip(scaler.from_unit(un));
    before += fom(problem.evaluate(x).metrics);
    after += fom(problem.evaluate(xn).metrics);
  }
  EXPECT_LT(after, before);
}

TEST_F(ActorFixture, TightEliteBoxConfinesProposals) {
  Critic critic = trained_critic(10);
  Rng rng(11);
  Actor actor(3, actor_config, rng);
  // Narrow box around u = 0.2.
  const Vec lb(3, 0.15), ub(3, 0.25);
  Rng train_rng(12);
  for (int i = 0; i < 20; ++i)
    actor.train_round(critic, fom, population_unit, lb, ub, train_rng);

  // States inside the box should produce next-designs near the box.
  Rng test_rng(13);
  for (int k = 0; k < 10; ++k) {
    Vec u(3);
    for (auto& v : u) v = test_rng.uniform(0.15, 0.25);
    const Vec a = propose(actor, u);
    for (std::size_t c = 0; c < 3; ++c) {
      const double un = u[c] + a[c];
      EXPECT_GT(un, 0.15 - 0.15);  // within 0.15 of the box
      EXPECT_LT(un, 0.25 + 0.15);
    }
  }
}

TEST_F(ActorFixture, SelectCandidatePicksFromEliteStates) {
  Critic critic = trained_critic(14);
  Rng rng(15);
  Actor actor(3, actor_config, rng);
  std::vector<EliteSet::Entry> elites;
  for (int i = 0; i < 5; ++i)
    elites.push_back({records[static_cast<std::size_t>(i)].x, records[static_cast<std::size_t>(i)].fom});
  const Vec proposal = actor.select_candidate_unit(critic, fom, elites, scaler);
  ASSERT_EQ(proposal.size(), 3u);
  // proposal = state + action with action in [-1,1]: stays in [-2,2].
  for (const double v : proposal) {
    EXPECT_GE(v, -2.0);
    EXPECT_LE(v, 2.0);
  }
}

TEST_F(ActorFixture, SelectCandidateEmptyEliteThrows) {
  Critic critic = trained_critic(16, 2);
  Rng rng(17);
  Actor actor(3, actor_config, rng);
  EXPECT_THROW(actor.select_candidate_unit(critic, fom, {}, scaler), std::invalid_argument);
}

TEST_F(ActorFixture, TrainOnEmptyPopulationThrows) {
  Critic critic = trained_critic(18, 2);
  Rng rng(19);
  Actor actor(3, actor_config, rng);
  const nn::Mat empty(0, 3);
  const Vec lb(3, -1.0), ub(3, 1.0);
  EXPECT_THROW(actor.train_round(critic, fom, empty, lb, ub, rng), std::invalid_argument);
}

TEST_F(ActorFixture, EliteBoxSizeMismatchThrows) {
  // A box shorter than dim() used to be read out of bounds.
  Critic critic = trained_critic(20, 2);
  Rng rng(21);
  Actor actor(3, actor_config, rng);
  const Vec lb_full(3, -1.0), full(3, 1.0), short_box(2, 1.0), long_box(4, 1.0);
  EXPECT_THROW(actor.train_round(critic, fom, population_unit, short_box, full, rng),
               ContractViolation);
  EXPECT_THROW(actor.train_round(critic, fom, population_unit, lb_full, short_box, rng),
               ContractViolation);
  EXPECT_THROW(actor.train_round(critic, fom, population_unit, long_box, full, rng),
               ContractViolation);
}

TEST_F(ActorFixture, PopulationWidthMismatchThrows) {
  Critic critic = trained_critic(22, 2);
  Rng rng(23);
  Actor actor(3, actor_config, rng);
  const nn::Mat too_wide(5, 4, 0.0);
  const Vec lb(3, -1.0), ub(3, 1.0);
  EXPECT_THROW(actor.train_round(critic, fom, too_wide, lb, ub, rng), ContractViolation);
}

}  // namespace
}  // namespace maopt::core
