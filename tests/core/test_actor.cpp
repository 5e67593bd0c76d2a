#include "core/actor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "../support/actor_reference.hpp"
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

/// `entries` in unit space, one per row.
nn::Mat unit_rows(const std::vector<EliteSet::Entry>& entries, const nn::RangeScaler& scaler) {
  nn::Mat out(entries.size(), scaler.dim());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const Vec u = scaler.to_unit(entries[k].x);
    for (std::size_t c = 0; c < u.size(); ++c) out(k, c) = u[c];
  }
  return out;
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

  CriticEnsemble trained_critic(std::uint64_t seed, int rounds = 25) {
    Rng rng(seed);
    CriticEnsemble critic(1, 3, 3, critic_config, rng);
    critic.fit_normalizer(records);
    PseudoSampleBatcher batcher(records, scaler);
    Rng train_rng(seed + 1);
    for (int i = 0; i < rounds; ++i) critic.member(0).train_round(batcher, train_rng);
    return critic;
  }

  /// One lockstep round of `actor` alone inside [lb, ub], continuing the
  /// minibatch stream `rng`; returns its loss.
  double train(Actor& actor, CriticEnsemble& critic, const Vec& lb, const Vec& ub, Rng& rng) {
    ActorTask task{rng, lb, ub, population_unit};
    ActorRound round(3, 1, actor_config);
    round.run(std::span<Actor>(&actor, 1), std::span<ActorTask>(&task, 1), critic, fom,
              population_unit);
    rng = task.rng;
    return round.loss(0);
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
  CriticEnsemble critic = trained_critic(3);
  Rng rng(4);
  Actor actor(3, actor_config, rng);
  const Vec lb(3, -1.0), ub(3, 1.0);
  Rng train_rng(5);
  const double first = train(actor, critic, lb, ub, train_rng);
  double last = first;
  for (int i = 0; i < 8; ++i) last = train(actor, critic, lb, ub, train_rng);
  EXPECT_LT(last, first);
}

TEST_F(ActorFixture, TrainedProposalsReduceTrueFom) {
  // After training against a good critic, applying the actor's action to a
  // random state should (on average) lower the true objective.
  CriticEnsemble critic = trained_critic(6);
  Rng rng(7);
  Actor actor(3, actor_config, rng);
  const Vec lb(3, -1.0), ub(3, 1.0);
  Rng train_rng(8);
  for (int i = 0; i < 15; ++i) train(actor, critic, lb, ub, train_rng);

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
  CriticEnsemble critic = trained_critic(10);
  Rng rng(11);
  Actor actor(3, actor_config, rng);
  // Narrow box around u = 0.2.
  const Vec lb(3, 0.15), ub(3, 0.25);
  Rng train_rng(12);
  for (int i = 0; i < 20; ++i) train(actor, critic, lb, ub, train_rng);

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
  CriticEnsemble critic = trained_critic(14);
  Rng rng(15);
  Actor actor(3, actor_config, rng);
  std::vector<EliteSet::Entry> elites;
  for (int i = 0; i < 5; ++i)
    elites.push_back({records[static_cast<std::size_t>(i)].x, records[static_cast<std::size_t>(i)].fom});
  ActorTask task{Rng(16), Vec(3, -1.0), Vec(3, 1.0), unit_rows(elites, scaler)};
  ActorRound round(3, 1, actor_config);
  round.run(std::span<Actor>(&actor, 1), std::span<ActorTask>(&task, 1), critic, fom,
            population_unit);
  const std::span<const double> proposal = round.proposal(0);
  ASSERT_EQ(proposal.size(), 3u);
  // proposal = state + action with action in [-1,1]: stays in [-2,2].
  for (const double v : proposal) {
    EXPECT_GE(v, -2.0);
    EXPECT_LE(v, 2.0);
  }
}

TEST_F(ActorFixture, SelectCandidateEmptyEliteThrows) {
  CriticEnsemble critic = trained_critic(16, 2);
  Rng rng(17);
  Actor actor(3, actor_config, rng);
  ActorTask task{Rng(18), Vec(3, -1.0), Vec(3, 1.0), nn::Mat(0, 3)};
  ActorRound round(3, 1, actor_config);
  EXPECT_THROW(round.run(std::span<Actor>(&actor, 1), std::span<ActorTask>(&task, 1), critic,
                         fom, population_unit),
               std::invalid_argument);
}

TEST_F(ActorFixture, TrainOnEmptyPopulationThrows) {
  CriticEnsemble critic = trained_critic(18, 2);
  Rng rng(19);
  Actor actor(3, actor_config, rng);
  const nn::Mat empty(0, 3);
  const Vec lb(3, -1.0), ub(3, 1.0);
  ActorTask task{rng, lb, ub, population_unit};
  ActorRound round(3, 1, actor_config);
  EXPECT_THROW(round.run(std::span<Actor>(&actor, 1), std::span<ActorTask>(&task, 1), critic,
                         fom, empty),
               std::invalid_argument);
}

TEST_F(ActorFixture, EliteBoxSizeMismatchThrows) {
  // A box shorter than dim() used to be read out of bounds.
  CriticEnsemble critic = trained_critic(20, 2);
  Rng rng(21);
  Actor actor(3, actor_config, rng);
  const Vec lb_full(3, -1.0), full(3, 1.0), short_box(2, 1.0), long_box(4, 1.0);
  ActorRound round(3, 1, actor_config);
  auto run_with = [&](const Vec& lb, const Vec& ub) {
    ActorTask task{rng, lb, ub, population_unit};
    round.run(std::span<Actor>(&actor, 1), std::span<ActorTask>(&task, 1), critic, fom,
              population_unit);
  };
  EXPECT_THROW(run_with(short_box, full), ContractViolation);
  EXPECT_THROW(run_with(lb_full, short_box), ContractViolation);
  EXPECT_THROW(run_with(long_box, full), ContractViolation);
}

TEST_F(ActorFixture, PopulationWidthMismatchThrows) {
  CriticEnsemble critic = trained_critic(22, 2);
  Rng rng(23);
  Actor actor(3, actor_config, rng);
  const nn::Mat too_wide(5, 4, 0.0);
  const Vec lb(3, -1.0), ub(3, 1.0);
  ActorTask task{rng, lb, ub, population_unit};
  ActorRound round(3, 1, actor_config);
  EXPECT_THROW(round.run(std::span<Actor>(&actor, 1), std::span<ActorTask>(&task, 1), critic,
                         fom, too_wide),
               ContractViolation);
}

// --- The lockstep round against the per-actor reference ------------------

/// Every trainable value of `net`, in parameter order.
std::vector<double> flat_parameters(nn::Mlp& net) {
  std::vector<double> out;
  for (const auto& p : net.params()) out.insert(out.end(), p.value->begin(), p.value->end());
  return out;
}

/// A 6-dimensional problem, so the action columns span gemm_nt's vector
/// and scalar column blocks; elites of 20, 7 and 13 states, so selection
/// chunks come whole and partial.
struct LockstepFixture : ::testing::Test {
  static constexpr std::size_t kDim = 6;

  LockstepFixture()
      : problem(kDim), scaler(problem.lower_bounds(), problem.upper_bounds()), fom(problem, 1.0) {
    Rng rng(31);
    for (int i = 0; i < 50; ++i) {
      SimRecord r;
      r.x = problem.random_design(rng);
      r.metrics = problem.evaluate(r.x).metrics;
      r.simulation_ok = true;
      r.fom = fom(r.metrics);
      records.push_back(std::move(r));
    }
    population_unit = PseudoSampleBatcher(records, scaler).unit_designs();
    critic_config.hidden = {24, 20};
    critic_config.steps_per_round = 4;
    actor_config.hidden = {20, 18};
    actor_config.steps_per_round = 3;
    actor_config.lambda = 20.0;
    const std::size_t sizes[] = {20, 7, 13};
    for (std::size_t i = 0; i < 3; ++i) {
      std::vector<EliteSet::Entry> set;
      for (std::size_t k = 0; k < sizes[i]; ++k) {
        const SimRecord& r = records[(5 * i + 3 * k) % records.size()];
        set.push_back({r.x, r.fom});
      }
      elites.push_back(std::move(set));
      // Box i: the middle of the space, narrower for later actors, so the
      // violation term is active on some rows and not on others.
      const double half = 0.6 - 0.2 * static_cast<double>(i);
      boxes.push_back({Vec(kDim, -half), Vec(kDim, half)});
    }
  }

  CriticEnsemble make_critic(std::size_t members) {
    Rng rng(41);
    CriticEnsemble critic(members, kDim, 3, critic_config, rng);
    critic.fit_normalizer(records);
    const PseudoSampleBatcher batcher(records, scaler);
    Rng train_rng(42);
    for (int i = 0; i < 2; ++i) critic.train_round(batcher, train_rng);
    return critic;
  }

  /// Minibatch stream of actor i in round r.
  static Rng stream(int r, std::size_t i) {
    return Rng(derive_seed(77, 0x1000 + static_cast<std::uint64_t>(r) * 64 + i));
  }
  /// Elite set and box of actor i: its own, or actor 0's when shared.
  std::size_t set_of(std::size_t i, bool shared) const { return shared ? 0 : i; }

  ckt::ConstrainedQuadratic problem;
  nn::RangeScaler scaler;
  ckt::FomEvaluator fom;
  std::vector<SimRecord> records;
  nn::Mat population_unit;
  CriticConfig critic_config;
  ActorConfig actor_config;
  std::vector<std::vector<EliteSet::Entry>> elites;
  std::vector<std::pair<Vec, Vec>> boxes;
};

/// Actors in round r: all of them, then (with several) one fewer, as when
/// the simulation budget cuts an iteration short.
std::size_t actors_in_round(int r, std::size_t num_actors) {
  return r == 1 && num_actors > 1 ? num_actors - 1 : num_actors;
}

TEST_F(LockstepFixture, LockstepRoundMatchesPerActorReferenceBitwise) {
  constexpr int kRounds = 3;
  for (const std::size_t members : {std::size_t{1}, std::size_t{2}}) {
    CriticEnsemble critic = make_critic(members);
    for (const std::size_t batch : {64, 37, 5, 1}) {
      ActorConfig cfg = actor_config;
      cfg.batch_size = batch;
      for (const std::size_t num_actors : {1, 2, 3}) {
        for (const bool shared : {true, false}) {
          // The reference: each actor trained alone, whole batch at a time.
          std::vector<testing::ReferenceActor> reference;
          for (std::size_t i = 0; i < num_actors; ++i) {
            Rng init(derive_seed(55, i));
            reference.emplace_back(kDim, cfg, init);
          }
          std::vector<std::vector<double>> ref_loss(kRounds), ref_proposal(kRounds);
          for (int r = 0; r < kRounds; ++r)
            for (std::size_t i = 0; i < actors_in_round(r, num_actors); ++i) {
              Rng rng = stream(r, i);
              const auto& [lb, ub] = boxes[set_of(i, shared)];
              ref_loss[r].push_back(
                  reference[i].train_round(critic, fom, population_unit, lb, ub, rng));
              const Vec p = reference[i].select_candidate_unit(critic, fom,
                                                               elites[set_of(i, shared)], scaler);
              ref_proposal[r].insert(ref_proposal[r].end(), p.begin(), p.end());
            }

          for (const std::size_t workers : {0, 1, 3, 7}) {
            std::unique_ptr<ThreadPool> pool;
            if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
            std::vector<Actor> actors;
            for (std::size_t i = 0; i < num_actors; ++i) {
              Rng init(derive_seed(55, i));
              actors.emplace_back(kDim, cfg, init);
            }
            std::vector<ActorTask> tasks(num_actors);
            ActorRound round(kDim, num_actors, cfg);
            const std::string what = "members " + std::to_string(members) + " batch " +
                                     std::to_string(batch) + " actors " +
                                     std::to_string(num_actors) + (shared ? " shared" : " own") +
                                     " workers " + std::to_string(workers);
            for (int r = 0; r < kRounds; ++r) {
              const std::size_t n = actors_in_round(r, num_actors);
              for (std::size_t i = 0; i < n; ++i) {
                tasks[i].rng = stream(r, i);
                tasks[i].lb_unit = boxes[set_of(i, shared)].first;
                tasks[i].ub_unit = boxes[set_of(i, shared)].second;
                tasks[i].elites_unit = unit_rows(elites[set_of(i, shared)], scaler);
              }
              round.run(std::span<Actor>(actors).first(n), std::span<ActorTask>(tasks).first(n),
                        critic, fom, population_unit, pool.get());
              for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(round.loss(i), ref_loss[r][i]) << what << " round " << r << " actor " << i;
                for (std::size_t c = 0; c < kDim; ++c)
                  ASSERT_EQ(round.proposal(i)[c], ref_proposal[r][i * kDim + c])
                      << what << " round " << r << " actor " << i << " column " << c;
              }
            }
            for (std::size_t i = 0; i < num_actors; ++i)
              ASSERT_EQ(flat_parameters(actors[i].network()),
                        flat_parameters(reference[i].network()))
                  << what << " actor " << i;
          }
        }
      }
    }
  }
}

TEST_F(LockstepFixture, LateWorkersGiveTheSameBits) {
  // Helpers that start after the caller has run some (or all) of the round's
  // chunks must neither change the result nor hold the round up.
  CriticEnsemble critic = make_critic(1);
  auto make_actors = [&] {
    std::vector<Actor> actors;
    for (std::size_t i = 0; i < 3; ++i) {
      Rng init(derive_seed(56, i));
      actors.emplace_back(kDim, actor_config, init);
    }
    return actors;
  };
  std::vector<Actor> reference = make_actors(), actors = make_actors();
  std::vector<ActorTask> tasks(3);
  ActorRound ref_round(kDim, 3, actor_config), round(kDim, 3, actor_config);
  ThreadPool pool(3);
  for (int r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < 3; ++i) {
      tasks[i].lb_unit = boxes[i].first;
      tasks[i].ub_unit = boxes[i].second;
      tasks[i].elites_unit = unit_rows(elites[i], scaler);
    }
    for (std::size_t i = 0; i < 3; ++i) tasks[i].rng = stream(r, i);
    ref_round.run(reference, tasks, critic, fom, population_unit);
    // Occupy some workers so their helper tasks queue behind a sleep.
    for (int w = 0; w <= r % 3; ++w)
      pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    for (std::size_t i = 0; i < 3; ++i) tasks[i].rng = stream(r, i);
    round.run(actors, tasks, critic, fom, population_unit, &pool);
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(round.loss(i), ref_round.loss(i)) << "round " << r << " actor " << i;
      for (std::size_t c = 0; c < kDim; ++c)
        ASSERT_EQ(round.proposal(i)[c], ref_round.proposal(i)[c]) << "round " << r;
    }
  }
  for (std::size_t i = 0; i < 3; ++i)
    ASSERT_EQ(flat_parameters(actors[i].network()), flat_parameters(reference[i].network()));
}

}  // namespace
}  // namespace maopt::core
