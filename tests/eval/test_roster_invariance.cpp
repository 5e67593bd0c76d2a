// Batched == serial across the paper's MA-Opt roster: DNN-Opt, MA-Opt1,
// MA-Opt2 and MA-Opt trajectories are bit-identical whatever the optimizer
// pool size, and whether they simulate on the bare problem or behind an
// EvalService (which batches over a pool of its own and caches results).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "circuits/ldo_regulator.hpp"
#include "circuits/two_stage_ota.hpp"
#include "core/ma_optimizer.hpp"
#include "eval/eval_service.hpp"

namespace maopt {
namespace {

/// Small rounds and a short budget: every roster path runs in well under a
/// second per trajectory.
core::MaOptConfig small(core::MaOptConfig config) {
  config.critic.steps_per_round = 6;
  config.actor.steps_per_round = 4;
  config.near_sampling.num_samples = 200;
  config.t_ns = 2;
  return config;
}

/// Every bit of the trajectory: designs, metrics (NaN payloads included),
/// FoMs and the running best.
std::vector<std::uint64_t> trajectory_bits(const core::RunHistory& h) {
  std::vector<std::uint64_t> bits;
  for (const core::SimRecord& r : h.records) {
    for (const double v : r.x) bits.push_back(std::bit_cast<std::uint64_t>(v));
    for (const double v : r.metrics) bits.push_back(std::bit_cast<std::uint64_t>(v));
    bits.push_back(std::bit_cast<std::uint64_t>(r.fom));
  }
  for (const double v : h.best_fom_after) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

void expect_roster_invariant(const ckt::SizingProblem& problem, std::size_t budget) {
  Rng rng(7);
  const std::vector<core::SimRecord> initial = core::sample_initial_set(problem, 12, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : initial) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(problem, rows);
  const core::RunOptions options{.seed = 11, .simulation_budget = budget};
  for (const core::MaOptConfig& base :
       {core::MaOptConfig::dnn_opt(), core::MaOptConfig::ma_opt1(), core::MaOptConfig::ma_opt2(),
        core::MaOptConfig::ma_opt()}) {
    std::vector<std::uint64_t> reference;
    for (const std::size_t threads : {1, 4}) {
      for (const bool service : {false, true}) {
        core::MaOptConfig config = small(base);
        config.num_threads = threads;
        const std::string what = config.name + ", " + std::to_string(threads) + " thread(s), " +
                                 (service ? "EvalService" : "bare problem");
        core::RunHistory history;
        if (service) {
          eval::EvalServiceConfig service_config;
          service_config.num_threads = threads;
          const eval::EvalService evals(problem, service_config);
          history = core::MaOptimizer(config).run(evals, initial, fom, options);
        } else {
          history = core::MaOptimizer(config).run(problem, initial, fom, options);
        }
        ASSERT_EQ(history.records.size(), initial.size() + budget) << what;
        const std::vector<std::uint64_t> bits = trajectory_bits(history);
        if (reference.empty())
          reference = bits;
        else
          EXPECT_EQ(bits, reference) << what;
      }
    }
  }
}

TEST(RosterInvariance, OtaTrajectoriesIdenticalAcrossPoolsAndEvalService) {
  const ckt::TwoStageOta ota;
  expect_roster_invariant(ota, 8);
}

TEST(RosterInvariance, LdoTrajectoriesIdenticalAcrossPoolsAndEvalService) {
  const ckt::LdoRegulator ldo;
  expect_roster_invariant(ldo, 8);
}

}  // namespace
}  // namespace maopt
