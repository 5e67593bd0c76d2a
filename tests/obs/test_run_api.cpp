// Integration tests of the unified Optimizer::run(RunOptions) API: every
// optimizer emits the same event protocol, the null observer changes
// nothing about a run, and the phase spans account for iteration time.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "circuits/analytic_problems.hpp"
#include "core/de.hpp"
#include "core/history_io.hpp"
#include "core/ma_optimizer.hpp"
#include "core/pso.hpp"
#include "core/random_search.hpp"
#include "gp/bo_optimizer.hpp"
#include "obs/run_report.hpp"

namespace maopt::core {
namespace {

MaOptConfig fast_ma(MaOptConfig base) {
  base.critic.hidden = {16, 16};
  base.critic.steps_per_round = 5;
  base.actor.hidden = {12, 12};
  base.actor.steps_per_round = 5;
  base.near_sampling.num_samples = 50;
  return base;
}

struct CountingObserver final : obs::RunObserver {
  int started = 0, finished = 0, checkpoints = 0;
  std::uint64_t sims = 0;
  std::vector<obs::IterationCompleted> iterations;
  obs::RunStarted first;
  obs::RunFinished last;
  void on_run_started(const obs::RunStarted& event) override {
    ++started;
    first = event;
  }
  void on_simulation_completed(const obs::SimulationCompleted&) override { ++sims; }
  void on_iteration_completed(const obs::IterationCompleted& event) override {
    iterations.push_back(event);
  }
  void on_checkpoint_written(const obs::CheckpointWritten&) override { ++checkpoints; }
  void on_run_finished(const obs::RunFinished& event) override {
    ++finished;
    last = event;
  }
};

struct RunApiFixture : ::testing::Test {
  RunApiFixture() : problem(4) {
    Rng rng(1);
    initial = sample_initial_set(problem, 20, rng);
    std::vector<linalg::Vec> rows;
    for (const auto& r : initial) rows.push_back(r.metrics);
    fom = std::make_unique<ckt::FomEvaluator>(ckt::FomEvaluator::fit_reference(problem, rows));
  }

  std::vector<std::unique_ptr<Optimizer>> full_roster() const {
    std::vector<std::unique_ptr<Optimizer>> roster;
    roster.push_back(std::make_unique<RandomSearch>());
    roster.push_back(std::make_unique<PsoOptimizer>());
    roster.push_back(std::make_unique<DeOptimizer>());
    roster.push_back(std::make_unique<gp::BoOptimizer>());
    roster.push_back(std::make_unique<MaOptimizer>(fast_ma(MaOptConfig::ma_opt())));
    return roster;
  }

  ckt::ConstrainedQuadratic problem;
  std::vector<SimRecord> initial;
  std::unique_ptr<ckt::FomEvaluator> fom;
};

TEST_F(RunApiFixture, EveryOptimizerEmitsTheFullEventProtocol) {
  constexpr std::size_t kBudget = 12;
  for (const auto& opt : full_roster()) {
    CountingObserver sink;
    RunOptions options;
    options.seed = 3;
    options.simulation_budget = kBudget;
    options.observer = &sink;
    const RunHistory h = opt->run(problem, initial, *fom, options);

    EXPECT_EQ(sink.started, 1) << opt->name();
    EXPECT_EQ(sink.finished, 1) << opt->name();
    // One SimulationCompleted per budgeted simulation, no more, no less.
    EXPECT_EQ(sink.sims, kBudget) << opt->name();
    EXPECT_EQ(h.simulations_used(), kBudget) << opt->name();
    EXPECT_FALSE(sink.iterations.empty()) << opt->name();

    EXPECT_EQ(sink.first.algorithm, opt->name());
    EXPECT_EQ(sink.first.problem, problem.spec().name);
    EXPECT_EQ(sink.first.seed, 3u);
    EXPECT_EQ(sink.first.simulation_budget, kBudget);
    EXPECT_EQ(sink.first.num_initial, initial.size());
    EXPECT_EQ(sink.first.dim, problem.dim());

    EXPECT_EQ(sink.last.algorithm, opt->name());
    EXPECT_EQ(sink.last.simulations, kBudget);
    EXPECT_DOUBLE_EQ(sink.last.best_fom, h.best_fom_after.back());
    EXPECT_EQ(sink.last.counters.simulations, kBudget);
    EXPECT_EQ(sink.last.counters.iterations, sink.iterations.size());

    // The last iteration event saw the whole budget spent, and per-event
    // invariants hold along the way.
    EXPECT_EQ(sink.iterations.back().simulations_done, kBudget);
    std::uint64_t prev_iter = 0;
    for (const auto& it : sink.iterations) {
      EXPECT_GT(it.iteration, prev_iter) << opt->name();
      prev_iter = it.iteration;
      EXPECT_GE(it.wall_seconds, 0.0);
    }
  }
}

TEST_F(RunApiFixture, CriticLossReportedOnEveryTrainingIteration) {
  for (const auto& opt : full_roster()) {
    CountingObserver sink;
    RunOptions options;
    options.seed = 5;
    options.simulation_budget = 20;
    options.observer = &sink;
    opt->run(problem, initial, *fom, options);
    const bool trains_critic = opt->name() == "MA-Opt";
    int training = 0;
    for (const auto& it : sink.iterations) {
      if (trains_critic && !it.near_sampling) {
        ++training;
        EXPECT_TRUE(std::isfinite(it.critic_loss)) << "iteration " << it.iteration;
        EXPECT_GT(it.critic_loss, 0.0) << "iteration " << it.iteration;
      } else {
        EXPECT_TRUE(std::isnan(it.critic_loss)) << opt->name() << " iteration " << it.iteration;
      }
    }
    if (trains_critic) {
      EXPECT_GT(training, 0);
    }
  }
}

TEST_F(RunApiFixture, NullObserverLeavesTrajectoriesBitIdentical) {
  for (const auto& plain : full_roster()) {
    RunOptions options;
    options.seed = 11;
    options.simulation_budget = 10;
    const RunHistory base = plain->run(problem, initial, *fom, options);

    CountingObserver sink;
    RunOptions observed = options;
    observed.observer = &sink;
    const RunHistory with_obs = plain->run(problem, initial, *fom, observed);

    ASSERT_EQ(base.records.size(), with_obs.records.size()) << plain->name();
    for (std::size_t i = 0; i < base.records.size(); ++i) {
      EXPECT_EQ(base.records[i].x, with_obs.records[i].x) << plain->name();
      EXPECT_DOUBLE_EQ(base.records[i].fom, with_obs.records[i].fom) << plain->name();
    }
    EXPECT_EQ(base.best_fom_after, with_obs.best_fom_after) << plain->name();
  }
}

// Decorator whose evaluation takes a known minimum time, so the Simulate
// spans have a lower bound the test can assert against.
class SleepyProblem final : public ckt::SizingProblem {
 public:
  explicit SleepyProblem(const ckt::SizingProblem& inner) : inner_(&inner) {}
  const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  Vec failure_metrics() const override { return inner_->failure_metrics(); }
  ckt::EvalResult evaluate(const Vec& x) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner_->evaluate(x);
  }

 private:
  const ckt::SizingProblem* inner_;
};

TEST_F(RunApiFixture, PhaseSpansAccountForIterationTime) {
  SleepyProblem sleepy(problem);
  Rng rng(1);
  auto init = sample_initial_set(sleepy, 15, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : init) rows.push_back(r.metrics);
  const auto f = ckt::FomEvaluator::fit_reference(sleepy, rows);

  // Single actor on a single thread: every span runs sequentially on the
  // driving thread, so per iteration the spans must (a) sum to no more than
  // the iteration wall clock (plus loop bookkeeping slack) and (b) cover the
  // sleep floor of its simulations.
  MaOptConfig config = fast_ma(MaOptConfig::dnn_opt());
  config.num_threads = 1;
  MaOptimizer opt(config);
  CountingObserver sink;
  RunOptions options;
  options.seed = 5;
  options.simulation_budget = 10;
  options.observer = &sink;
  opt.run(sleepy, init, f, options);

  ASSERT_FALSE(sink.iterations.empty());
  for (const auto& it : sink.iterations) {
    ASSERT_FALSE(it.spans.empty());
    double span_sum = 0.0;
    double sim_sum = 0.0;
    for (const auto& s : it.spans) {
      EXPECT_GE(s.seconds, 0.0);
      span_sum += s.seconds;
      if (s.phase == obs::Phase::Simulate) sim_sum += s.seconds;
    }
    // Tolerances are loose (2ms absolute + 50% relative) to stay robust on
    // loaded CI machines; the invariant being guarded is "spans measure this
    // iteration", not clock precision.
    EXPECT_LE(span_sum, it.wall_seconds * 1.5 + 0.002);
    EXPECT_GE(sim_sum, 0.002 * 0.5);
    EXPECT_GE(it.wall_seconds, sim_sum * 0.5);
  }
}

TEST_F(RunApiFixture, CheckpointEventsCarryBytesAndCounters) {
  const std::string path = "/tmp/maopt_obs_ckpt_test.bin";
  MaOptConfig config = fast_ma(MaOptConfig::ma_opt2());
  config.checkpoint_path = path;
  config.checkpoint_every = 2;
  MaOptimizer opt(config);
  CountingObserver sink;
  RunOptions options;
  options.seed = 9;
  options.simulation_budget = 12;
  options.observer = &sink;
  opt.run(problem, initial, *fom, options);

  EXPECT_GT(sink.checkpoints, 0);
  EXPECT_EQ(sink.last.counters.checkpoints, static_cast<std::uint64_t>(sink.checkpoints));
  EXPECT_GT(sink.last.counters.checkpoint_bytes, 0u);
  // The bytes counter matches what actually landed on disk (last snapshot).
  const RunCheckpoint ckpt = load_checkpoint(path);
  EXPECT_EQ(ckpt.seed, 9u);
  std::remove(path.c_str());
}

TEST_F(RunApiFixture, ResumeEmitsRunBracketing) {
  const std::string path = "/tmp/maopt_obs_resume_test.bin";
  MaOptConfig config = fast_ma(MaOptConfig::ma_opt2());
  config.checkpoint_path = path;
  config.checkpoint_every = 2;
  MaOptimizer opt(config);
  opt.run(problem, initial, *fom, {.seed = 13, .simulation_budget = 8});
  const RunCheckpoint ckpt = load_checkpoint(path);

  MaOptConfig config2 = fast_ma(MaOptConfig::ma_opt2());
  MaOptimizer resumed(config2);
  CountingObserver sink;
  RunOptions options;
  options.simulation_budget = 14;
  options.observer = &sink;
  const RunHistory h = resumed.resume(problem, ckpt, *fom, options);
  EXPECT_EQ(h.simulations_used(), 14u);
  EXPECT_EQ(sink.started, 1);
  EXPECT_EQ(sink.finished, 1);
  // The checkpoint's seed wins over options.seed (which stayed 0).
  EXPECT_EQ(sink.first.seed, 13u);
  EXPECT_EQ(sink.last.simulations, 14u);
  std::remove(path.c_str());
}

TEST_F(RunApiFixture, RunReportAggregatesARoster) {
  obs::RunReport report;
  RunOptions options;
  options.seed = 2;
  options.simulation_budget = 8;
  options.observer = &report;
  for (const auto& opt : full_roster()) opt->run(problem, initial, *fom, options);

  ASSERT_EQ(report.rows().size(), 5u);
  for (const auto& row : report.rows()) {
    EXPECT_TRUE(row.finished);
    EXPECT_EQ(row.budget, 8u);
    EXPECT_EQ(row.simulations, 8u);
    EXPECT_GT(row.iterations, 0u);
    EXPECT_GE(row.wall_seconds, 0.0);
  }
  EXPECT_EQ(report.rows()[0].algorithm, "Random");
  EXPECT_EQ(report.rows()[4].algorithm, "MA-Opt");
  // MA-Opt actually trains: its critic/actor phases must show up.
  EXPECT_GT(report.rows()[4].phase(obs::Phase::CriticTrain), 0.0);
  EXPECT_GT(report.rows()[4].phase(obs::Phase::ActorTrain), 0.0);
  const std::string table = report.table();
  EXPECT_NE(table.find("MA-Opt"), std::string::npos);
  EXPECT_NE(table.find("Random"), std::string::npos);
}

}  // namespace
}  // namespace maopt::core
