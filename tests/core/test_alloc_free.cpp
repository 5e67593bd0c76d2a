// Allocation-freedom of the training hot path, measured rather than
// linted: this binary replaces the global operator new with a counting
// forwarder to malloc, so a test can assert that a warmed-up call performs
// zero heap allocations on the calling thread. It also records the largest
// single request, which bounds what a corrupt file can make a reader
// allocate. Lives in its own executable so no other test runs under the
// replaced allocator.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "../support/corrupt_file_replay.hpp"
#include "circuits/analytic_problems.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "core/actor.hpp"
#include "core/critic.hpp"
#include "nn/mlp.hpp"

namespace {

std::atomic<long> g_counted_allocations{0};
std::atomic<std::size_t> g_largest_request{0};  ///< largest counted request, bytes
thread_local bool t_counting = false;
std::atomic<bool> g_counting_all_threads{false};

}  // namespace

void* operator new(std::size_t size) {
  if (t_counting || g_counting_all_threads.load(std::memory_order_relaxed)) {
    g_counted_allocations.fetch_add(1, std::memory_order_relaxed);
    std::size_t largest = g_largest_request.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest_request.compare_exchange_weak(largest, size, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line so the compiler never pairs an inlined free() with an
// operator new call site (a -Wmismatched-new-delete false positive).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace maopt::core {
namespace {

/// Heap allocations made by `fn` on this thread.
template <typename Fn>
long allocations_during(Fn&& fn) {
  const long before = g_counted_allocations.load();
  t_counting = true;
  fn();
  t_counting = false;
  return g_counted_allocations.load() - before;
}

/// Heap allocations made by any thread while `fn` runs.
template <typename Fn>
long allocations_anywhere(Fn&& fn) {
  const long before = g_counted_allocations.load();
  g_counting_all_threads = true;
  fn();
  g_counting_all_threads = false;
  return g_counted_allocations.load() - before;
}

struct HotPathFixture : ::testing::Test {
  HotPathFixture() : problem(4), scaler(problem.lower_bounds(), problem.upper_bounds()) {
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
      SimRecord r;
      r.x = problem.random_design(rng);
      r.metrics = problem.evaluate(r.x).metrics;
      r.simulation_ok = true;
      records.push_back(std::move(r));
    }
    critic_config.hidden = {32, 32};
    critic_config.steps_per_round = 5;
    actor_config.hidden = {24, 24};
    actor_config.batch_size = 16;
    actor_config.steps_per_round = 5;
  }

  /// `n` actors' tasks: their own streams and boxes, and elite sets of
  /// 20, 7 and 13 of the records.
  std::vector<ActorTask> actor_tasks(std::size_t n) const {
    std::vector<ActorTask> tasks(n);
    const std::size_t sizes[] = {20, 7, 13};
    for (std::size_t i = 0; i < n; ++i) {
      tasks[i].rng = Rng(100 + i);
      tasks[i].lb_unit.assign(4, -0.5);
      tasks[i].ub_unit.assign(4, 0.5);
      tasks[i].elites_unit.ensure_shape(sizes[i % 3], 4);
      for (std::size_t k = 0; k < sizes[i % 3]; ++k) {
        const linalg::Vec u = scaler.to_unit(records[k].x);
        for (std::size_t c = 0; c < 4; ++c) tasks[i].elites_unit(k, c) = u[c];
      }
    }
    return tasks;
  }

  ckt::ConstrainedQuadratic problem;
  nn::RangeScaler scaler;
  std::vector<SimRecord> records;
  CriticConfig critic_config;
  ActorConfig actor_config;
};

linalg::Vec g_sink;  // escapes the probe allocation so it cannot be elided

TEST_F(HotPathFixture, CountingAllocatorSeesAllocations) {
  // Guards the guard: a Vec construction must register.
  EXPECT_GT(allocations_during([] { g_sink = linalg::Vec(100, 1.0); }), 0);
}

TEST_F(HotPathFixture, LinearInputGradientIsAllocationFreeWhenWarm) {
  // One Linear layer: its forward, backward and input gradient over caller
  // rows, with Wᵀ already packed.
  Rng rng(2);
  nn::Mlp layer(37, {}, 29, rng, /*tanh_output=*/false);
  nn::Mat x(16, 37, 0.25), dx(16, 37);
  nn::Mlp::Rows rows;
  layer.set_rows(rows, 16);
  layer.pack_input_columns(0, 37);
  EXPECT_EQ(allocations_during([&] {
              layer.forward(rows, x.data().data(), 0, 16);
              rows.output_grad().fill(0.5);
              layer.backward(rows, 0, 16);
              layer.input_gradient(rows, 0, 16, dx.data().data());
            }),
            0);
}

TEST_F(HotPathFixture, ActorTrainRoundIsAllocationFreeWhenWarm) {
  // The pool-less lockstep round of three actors, against one critic and
  // against an ensemble.
  const ckt::FomEvaluator fom(problem, 1.0);
  const PseudoSampleBatcher batcher(records, scaler);
  for (const std::size_t members : {std::size_t{1}, std::size_t{3}}) {
    Rng rng(3);
    CriticEnsemble critic(members, 4, problem.num_metrics(), critic_config, rng);
    critic.fit_normalizer(records);
    Rng train_rng(4);
    critic.train_round(batcher, train_rng);
    std::vector<Actor> actors;
    for (int i = 0; i < 3; ++i) actors.emplace_back(4, actor_config, rng);
    std::vector<ActorTask> tasks = actor_tasks(3);
    ActorRound round(4, 3, actor_config);
    round.run(actors, tasks, critic, fom, batcher.unit_designs());  // warm
    EXPECT_EQ(allocations_during(
                  [&] { round.run(actors, tasks, critic, fom, batcher.unit_designs()); }),
              0)
        << members << " critic member(s)";
  }
}

TEST_F(HotPathFixture, PooledActorRoundAllocatesPerRoundNotPerStep) {
  // Like the pooled critic round: a pooled lockstep round allocates only to
  // dispatch its helpers, so 10 and 50 steps allocate the same amount.
  const ckt::FomEvaluator fom(problem, 1.0);
  const PseudoSampleBatcher batcher(records, scaler);
  std::vector<long> counts;
  for (const int steps : {10, 50}) {
    ThreadPool pool(3);  // fresh, so the task queue's own growth is identical
    ActorConfig config = actor_config;
    config.steps_per_round = steps;
    Rng rng(9);
    CriticEnsemble critic(1, 4, problem.num_metrics(), critic_config, rng);
    critic.fit_normalizer(records);
    Rng train_rng(10);
    critic.train_round(batcher, train_rng);
    std::vector<Actor> actors;
    for (int i = 0; i < 3; ++i) actors.emplace_back(4, config, rng);
    std::vector<ActorTask> tasks = actor_tasks(3);
    ActorRound round(4, 3, config);
    round.run(actors, tasks, critic, fom, batcher.unit_designs(), &pool);  // warm
    counts.push_back(allocations_anywhere(
        [&] { round.run(actors, tasks, critic, fom, batcher.unit_designs(), &pool); }));
  }
  EXPECT_GT(counts[0], 0) << "no helper was dispatched";
  EXPECT_EQ(counts[0], counts[1]);
}

TEST_F(HotPathFixture, CriticTrainRoundIsAllocationFreeWhenWarm) {
  const PseudoSampleBatcher batcher(records, scaler);
  Rng rng(5);
  Critic critic(4, problem.num_metrics(), critic_config, rng);
  critic.fit_normalizer(records);
  Rng train_rng(6);
  critic.train_round(batcher, train_rng);  // warm
  EXPECT_EQ(allocations_during([&] { critic.train_round(batcher, train_rng); }), 0);
}

TEST_F(HotPathFixture, PooledCriticRoundAllocatesPerRoundNotPerStep) {
  // A pooled round allocates only to dispatch its helpers, once per round:
  // 10 and 50 steps must allocate the same amount, on every thread.
  const PseudoSampleBatcher batcher(records, scaler);
  std::vector<long> counts;
  for (const int steps : {10, 50}) {
    ThreadPool pool(3);  // fresh, so the task queue's own growth is identical
    CriticConfig config = critic_config;
    config.steps_per_round = steps;
    Rng rng(7);
    Critic critic(4, problem.num_metrics(), config, rng);
    critic.fit_normalizer(records);
    Rng train_rng(8);
    critic.train_round(batcher, train_rng, &pool);  // warm
    counts.push_back(
        allocations_anywhere([&] { critic.train_round(batcher, train_rng, &pool); }));
  }
  EXPECT_GT(counts[0], 0) << "no helper was dispatched";
  EXPECT_EQ(counts[0], counts[1]);
}

/// Largest single heap request `fn` makes on this thread.
template <typename Fn>
std::size_t largest_allocation_during(Fn&& fn) {
  g_largest_request = 0;
  (void)allocations_during(fn);
  return g_largest_request.load();
}

/// Replays every corrupt mutant of `reference` through `load` and checks
/// that no single allocation exceeds 8x the mutant's size. Readers also
/// allocate a fixed stream buffer whatever the file holds, so the bound
/// never drops below what loading an empty file takes.
void expect_allocations_bounded_by_file_size(
    const std::string& name, const std::function<void(const std::string&)>& write_reference,
    const std::function<void(const std::string&)>& load) {
  const auto dir = maopt::testing::replay_dir(name);
  const std::string reference_path = (dir / "reference").string();
  write_reference(reference_path);
  const std::string reference = maopt::testing::read_file_bytes(reference_path);
  const std::string mutant_path = (dir / "mutant").string();

  const auto try_load = [&] {
    try {
      load(mutant_path);
    } catch (const std::runtime_error&) {
    }
  };
  maopt::testing::write_file_bytes(mutant_path, "");
  const std::size_t floor = largest_allocation_during(try_load);

  int over_bound = 0;
  std::string worst;  ///< the largest over-bound allocation, described
  std::size_t worst_bytes = 0;
  const auto observe = [&](std::size_t size, const std::function<void()>& run) {
    const std::size_t largest = largest_allocation_during(run);
    if (largest <= std::max(8 * size, floor)) return;
    ++over_bound;
    if (largest > worst_bytes) {
      worst_bytes = largest;
      worst = std::to_string(size) + "-byte file, " + std::to_string(largest) + "-byte allocation";
    }
  };
  const LogLevel level = log_level();
  set_log_level(LogLevel::Off);
  const auto tally =
      maopt::testing::replay_corruptions(reference, mutant_path, 9, load, observe);
  set_log_level(level);
  EXPECT_EQ(over_bound, 0) << "largest: " << worst << " (floor " << floor << " bytes)";
  EXPECT_GT(tally.loaded + tally.rejected, static_cast<int>(8 * reference.size()));
  std::filesystem::remove_all(dir);
}

TEST(CorruptionReplayAlloc, CheckpointAllocationsStayWithinFileSize) {
  expect_allocations_bounded_by_file_size("alloc_checkpoint",
                                          maopt::testing::write_reference_checkpoint,
                                          maopt::testing::load_checkpoint_file);
}

TEST(CorruptionReplayAlloc, JournalAllocationsStayWithinFileSize) {
  expect_allocations_bounded_by_file_size("alloc_journal",
                                          maopt::testing::write_reference_journal,
                                          maopt::testing::load_journal_file);
}

}  // namespace
}  // namespace maopt::core
