// Fixed-size thread pool: it serves the helpers of MA-Opt's phased critic
// and actor rounds and runs an iteration's N_act SPICE simulations
// concurrently (the paper runs its actors as N_act OS processes; here they
// train in lockstep on the pool instead).
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"

namespace maopt {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the returned future yields its result (or exception).
  /// Submitting to a pool whose destructor has begun is a contract
  /// violation (the task could never run).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      const MutexLock lock(mutex_);
      MAOPT_CHECK(!stop_, "ThreadPool::submit: pool is shutting down");
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  /// Indices are dispatched as ceil(n / workers) contiguous chunks (one task
  /// per worker). Exceptions from tasks are rethrown (the first encountered,
  /// in chunk order); a throwing index skips the remainder of its own chunk
  /// only. All chunks — including ones that threw — are waited on before
  /// this returns or rethrows, so `fn` and everything it captures are
  /// guaranteed unreferenced afterwards.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ MAOPT_GUARDED_BY(mutex_);
  CondVar cv_;
  bool stop_ MAOPT_GUARDED_BY(mutex_) = false;
};

}  // namespace maopt
