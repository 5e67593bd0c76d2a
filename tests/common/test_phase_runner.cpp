#include "common/phase_runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace maopt {
namespace {

TEST(PhaseRunner, WithoutPoolRunsEveryChunkInOrderOnTheCaller) {
  PhaseRunner runner(nullptr, 4);
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  bool on_caller = true;
  auto body = [&](std::size_t c) {
    order.push_back(c);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  };
  runner.run(5, body);
  runner.run(0, body);
  runner.run(2, body);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 0, 1}));
  EXPECT_TRUE(on_caller);
}

TEST(PhaseRunner, EveryChunkRunsOnceAndIsVisibleAfterItsPhase) {
  // Phases of uneven sizes (including empty ones) with serial work between
  // them that reads what the previous phase wrote.
  const std::vector<std::size_t> sizes = {1, 7, 0, 3, 16, 2, 1, 9, 0, 5};
  for (const std::size_t workers : {1, 2, 3, 5}) {
    ThreadPool pool(workers);
    PhaseRunner runner(&pool, workers);
    for (int rep = 0; rep < 50; ++rep) {
      for (const std::size_t n : sizes) {
        std::vector<int> hits(n, 0);
        std::vector<long> values(n, 0);
        auto body = [&](std::size_t c) {
          ++hits[c];
          values[c] = static_cast<long>(c * c) + rep;
        };
        runner.run(n, body);
        for (std::size_t c = 0; c < n; ++c) {
          ASSERT_EQ(hits[c], 1) << "workers " << workers << " phase size " << n << " chunk " << c;
          ASSERT_EQ(values[c], static_cast<long>(c * c) + rep);
        }
      }
    }
  }
}

TEST(PhaseRunner, CallerFinishesTheRoundWhenHelpersStartLate) {
  ThreadPool pool(2);
  pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  std::vector<int> hits(64, 0);
  {
    PhaseRunner runner(&pool, 2);
    for (std::size_t phase = 0; phase < 8; ++phase) {
      auto body = [&](std::size_t c) { ++hits[phase * 8 + c]; };
      runner.run(8, body);
    }
  }  // round over before the helpers ever start: they must return at once
  for (const int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace maopt
