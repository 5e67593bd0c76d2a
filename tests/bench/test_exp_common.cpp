// Tests for the experiment harness the table/figure benches share.
#include "exp_common.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/pso.hpp"
#include "core/random_search.hpp"

namespace maopt::bench {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig c;
  c.runs = 2;
  c.sims = 10;
  c.init = 8;
  return c;
}

std::vector<std::unique_ptr<core::Optimizer>> tiny_roster() {
  std::vector<std::unique_ptr<core::Optimizer>> roster;
  roster.push_back(std::make_unique<core::RandomSearch>());
  roster.push_back(std::make_unique<core::PsoOptimizer>());
  return roster;
}

TEST(ExpCommon, ConfigFromCliDefaultsAndFull) {
  {
    const char* argv[] = {"prog"};
    const CliArgs args(1, argv);
    const auto c = ExperimentConfig::from_cli(args);
    EXPECT_EQ(c.runs, 2u);
    EXPECT_EQ(c.sims, 80u);
    EXPECT_FALSE(c.full);
  }
  {
    const char* argv[] = {"prog", "--full"};
    const CliArgs args(2, argv);
    const auto c = ExperimentConfig::from_cli(args);
    EXPECT_TRUE(c.full);
    EXPECT_EQ(c.runs, 10u);
    EXPECT_EQ(c.sims, 200u);
    EXPECT_EQ(c.init, 100u);
  }
  {
    const char* argv[] = {"prog", "--full", "--runs", "4"};
    const CliArgs args(4, argv);
    const auto c = ExperimentConfig::from_cli(args);
    EXPECT_EQ(c.runs, 4u);  // explicit flag overrides the full profile
    EXPECT_EQ(c.sims, 200u);
  }
}

TEST(ExpCommon, RunComparisonAggregatesAllAlgorithms) {
  ckt::ConstrainedQuadratic problem(4);
  const auto summaries = run_comparison(problem, tiny_roster(), tiny_config());
  ASSERT_EQ(summaries.size(), 2u);
  for (const auto& s : summaries) {
    EXPECT_EQ(s.runs, 2);
    EXPECT_GE(s.successes, 0);
    EXPECT_LE(s.successes, 2);
    EXPECT_EQ(s.avg_trajectory.size(), 10u);
    // Trajectories are best-so-far: averaged curves stay non-increasing.
    for (std::size_t i = 1; i < s.avg_trajectory.size(); ++i)
      EXPECT_LE(s.avg_trajectory[i], s.avg_trajectory[i - 1] + 1e-12);
  }
  EXPECT_EQ(summaries[0].name, "Random");
  EXPECT_EQ(summaries[1].name, "PSO");
}

TEST(ExpCommon, SharedInitialSetMakesRunsComparable) {
  // Both algorithms see the same initial set, so their trajectories start
  // from the same best-FoM value.
  ckt::ConstrainedQuadratic problem(4);
  ExperimentConfig config = tiny_config();
  config.runs = 1;
  const auto summaries = run_comparison(problem, tiny_roster(), config);
  // First trajectory points may already differ (first proposal differs), so
  // compare against a fresh reconstruction of the shared initial best.
  Rng rng(derive_seed(config.seed0, 0x1217));
  auto init = core::sample_initial_set(problem, config.init, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : init) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(problem, rows);
  core::annotate_foms(init, problem, fom);
  double init_best = 1e300;
  for (const auto& r : init) init_best = std::min(init_best, r.fom);
  for (const auto& s : summaries) EXPECT_LE(s.avg_trajectory.front(), init_best + 1e-12);
}

TEST(ExpCommon, TrajectoriesCsvWellFormed) {
  ckt::ConstrainedQuadratic problem(3);
  const auto summaries = run_comparison(problem, tiny_roster(), tiny_config());
  const std::string path = "/tmp/maopt_exp_common_test.csv";
  write_trajectories_csv(path, summaries);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "simulation,Random,PSO");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 10u);
  std::remove(path.c_str());
}

TEST(ExpCommon, BenchJsonWellFormed) {
  const std::string path = "/tmp/maopt_bench_json_test.json";
  write_bench_json(path, {{"kernel_gflops", 12.5, "GFLOP/s"},
                          {"train_round_ms", 3.25, "ms"},
                          {"odd\"name\\", 1.0, "unit"}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"kernel_gflops\": {\"value\": 12.5, \"unit\": \"GFLOP/s\"}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"train_round_ms\": {\"value\": 3.25, \"unit\": \"ms\"}"), std::string::npos);
  // Quotes and backslashes in names must be escaped so the file stays JSON.
  EXPECT_NE(text.find("\"odd\\\"name\\\\\""), std::string::npos) << text;
  // The host the numbers came from is recorded first.
  EXPECT_NE(text.find("\"host\": {\"nproc\": "), std::string::npos) << text;
  EXPECT_NE(text.find("\"build_type\": "), std::string::npos) << text;
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '\n');
  std::remove(path.c_str());
}

TEST(ExpCommon, PaperRosterHasFiveAlgorithmsInTableOrder) {
  const auto roster = paper_roster();
  ASSERT_EQ(roster.size(), 5u);
  EXPECT_EQ(roster[0]->name(), "BO");
  EXPECT_EQ(roster[1]->name(), "DNN-Opt");
  EXPECT_EQ(roster[2]->name(), "MA-Opt1");
  EXPECT_EQ(roster[3]->name(), "MA-Opt2");
  EXPECT_EQ(roster[4]->name(), "MA-Opt");
}

TEST(ExpCommon, HistoryDigestSeesEveryBitOfDesignsAndMetrics) {
  core::RunHistory h;
  h.records.resize(2);
  h.records[0].x = {0.25, 0.5};
  h.records[0].metrics = {1.0, std::nan("")};  // failed simulations hash too
  h.records[1].x = {0.75, 1.0};
  h.records[1].metrics = {2.0, 3.0};
  const std::string d = history_digest(h);
  EXPECT_EQ(d.size(), 32u);
  EXPECT_EQ(d.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(history_digest(h), d);

  core::RunHistory flipped = h;
  flipped.records[1].metrics[1] = std::nextafter(3.0, 4.0);
  EXPECT_NE(history_digest(flipped), d);
  core::RunHistory moved = h;  // same values, split differently between x and metrics
  moved.records[1].x = {0.75};
  moved.records[1].metrics = {1.0, 2.0, 3.0};
  EXPECT_NE(history_digest(moved), d);
}

}  // namespace
}  // namespace maopt::bench
