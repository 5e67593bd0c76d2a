#include <gtest/gtest.h>

#include "../support/constrained_rosenbrock.hpp"
#include "circuits/analytic_problems.hpp"
#include "core/de.hpp"
#include "core/pso.hpp"
#include "core/random_search.hpp"

namespace maopt::core {
namespace {

struct BaselineFixture : ::testing::Test {
  BaselineFixture() : problem(6) {
    Rng rng(1);
    initial = sample_initial_set(problem, 20, rng);
    std::vector<linalg::Vec> rows;
    for (const auto& r : initial) rows.push_back(r.metrics);
    fom = std::make_unique<ckt::FomEvaluator>(ckt::FomEvaluator::fit_reference(problem, rows));
  }
  ckt::ConstrainedQuadratic problem;
  std::vector<SimRecord> initial;
  std::unique_ptr<ckt::FomEvaluator> fom;
};

TEST_F(BaselineFixture, PsoRespectsBudgetAndMonotoneTrajectory) {
  PsoOptimizer pso;
  const RunHistory h = pso.run(problem, initial, *fom, {.seed = 3, .simulation_budget = 37});
  EXPECT_EQ(h.simulations_used(), 37u);
  for (std::size_t i = 1; i < h.best_fom_after.size(); ++i)
    EXPECT_LE(h.best_fom_after[i], h.best_fom_after[i - 1]);
}

TEST_F(BaselineFixture, DeRespectsBudgetAndMonotoneTrajectory) {
  DeOptimizer de;
  const RunHistory h = de.run(problem, initial, *fom, {.seed = 3, .simulation_budget = 41});
  EXPECT_EQ(h.simulations_used(), 41u);
  for (std::size_t i = 1; i < h.best_fom_after.size(); ++i)
    EXPECT_LE(h.best_fom_after[i], h.best_fom_after[i - 1]);
}

TEST_F(BaselineFixture, PsoCandidatesWithinBounds) {
  PsoOptimizer pso;
  const RunHistory h = pso.run(problem, initial, *fom, {.seed = 5, .simulation_budget = 40});
  for (std::size_t i = initial.size(); i < h.records.size(); ++i)
    for (std::size_t c = 0; c < problem.dim(); ++c) {
      EXPECT_GE(h.records[i].x[c], problem.lower_bounds()[c]);
      EXPECT_LE(h.records[i].x[c], problem.upper_bounds()[c]);
    }
}

TEST_F(BaselineFixture, DeCandidatesRespectIntegerMask) {
  ckt::testing::ConstrainedRosenbrock rosen(4);
  Rng rng(2);
  auto init = sample_initial_set(rosen, 16, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : init) rows.push_back(r.metrics);
  const auto f = ckt::FomEvaluator::fit_reference(rosen, rows);
  DeOptimizer de;
  const RunHistory h = de.run(rosen, init, f, {.seed = 7, .simulation_budget = 30});
  for (std::size_t i = init.size(); i < h.records.size(); ++i)
    EXPECT_DOUBLE_EQ(h.records[i].x.back(), std::round(h.records[i].x.back()));
}

TEST_F(BaselineFixture, BothImproveOverInitialBest) {
  auto recs = initial;
  annotate_foms(recs, problem, *fom);
  double init_best = 1e300;
  for (const auto& r : recs) init_best = std::min(init_best, r.fom);

  PsoOptimizer pso;
  DeOptimizer de;
  EXPECT_LT(pso.run(problem, initial, *fom, {.seed = 11, .simulation_budget = 60}).best_fom_after.back(), init_best);
  EXPECT_LT(de.run(problem, initial, *fom, {.seed = 11, .simulation_budget = 60}).best_fom_after.back(), init_best);
}

TEST_F(BaselineFixture, DeterministicForFixedSeed) {
  PsoOptimizer p1, p2;
  const auto a = p1.run(problem, initial, *fom, {.seed = 21, .simulation_budget = 20});
  const auto b = p2.run(problem, initial, *fom, {.seed = 21, .simulation_budget = 20});
  for (std::size_t i = 0; i < a.records.size(); ++i) EXPECT_EQ(a.records[i].x, b.records[i].x);

  DeOptimizer d1, d2;
  const auto c = d1.run(problem, initial, *fom, {.seed = 22, .simulation_budget = 20});
  const auto d = d2.run(problem, initial, *fom, {.seed = 22, .simulation_budget = 20});
  for (std::size_t i = 0; i < c.records.size(); ++i) EXPECT_EQ(c.records[i].x, d.records[i].x);
}

TEST_F(BaselineFixture, SmallInitialSetStillWorks) {
  Rng rng(9);
  auto tiny = sample_initial_set(problem, 3, rng);  // smaller than swarm/population
  std::vector<linalg::Vec> rows;
  for (const auto& r : tiny) rows.push_back(r.metrics);
  const auto f = ckt::FomEvaluator::fit_reference(problem, rows);
  PsoOptimizer pso;
  DeOptimizer de;
  EXPECT_EQ(pso.run(problem, tiny, f, {.seed = 1, .simulation_budget = 15}).simulations_used(), 15u);
  EXPECT_EQ(de.run(problem, tiny, f, {.seed = 1, .simulation_budget = 15}).simulations_used(), 15u);
}

}  // namespace
}  // namespace maopt::core
