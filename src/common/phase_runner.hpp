// Phased fork-join over a ThreadPool, for loops whose every step is a few
// short data-parallel phases separated by serial work on the calling thread
// (one critic minibatch step: sample a batch, then batch-row blocks, then
// parameter blocks). A parallel_for per phase would pay a task submission
// and a future per phase; a PhaseRunner submits its helpers once and keeps
// them for every phase of the round.
//
// Protocol. Every chunk of the round gets a ticket: phase p owns tickets
// [base_p, base_p + chunks_p), phases are numbered in the order run() opens
// them, and tickets are claimed from one counter that only grows during the
// round — it is never reset. A claim succeeds only below the end of the
// phase the claimer saw open, so nobody can claim a chunk of a finished
// phase, and nobody holds a ticket of a phase that is not open yet: a
// helper that is slow to wake delays nothing it has not started. Helpers
// with nothing to claim wait for the next phase (spinning briefly, then
// blocking on std::atomic::wait); the round's end releases them. The
// calling thread claims until its phase has no tickets left, so it alone
// can finish every phase: helpers only speed the round up, and a helper
// that starts after the round has ended returns at once.
//
// Determinism is the caller's business: which participant runs a chunk is
// scheduling-dependent, so each chunk must compute the same bits whoever
// runs it (disjoint outputs, no shared accumulators).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/thread_pool.hpp"

namespace maopt {

class PhaseRunner {
 public:
  /// Starts a round served by the calling thread plus up to `helpers`
  /// workers of `pool` (none when `pool` is null or `helpers` is 0). With no
  /// helpers nothing is allocated.
  PhaseRunner(ThreadPool* pool, std::size_t helpers);
  /// Ends the round: helpers waiting for another phase return.
  ~PhaseRunner();

  PhaseRunner(const PhaseRunner&) = delete;
  PhaseRunner& operator=(const PhaseRunner&) = delete;

  /// Runs body(0) .. body(chunks - 1) as the next phase of the round and
  /// returns once every chunk is done; everything the chunks wrote is
  /// visible to the caller afterwards. `body` must not throw.
  template <typename Body>
  void run(std::size_t chunks, Body& body) {
    run_erased(chunks, [](void* ctx, std::size_t c) { (*static_cast<Body*>(ctx))(c); }, &body);
  }

 private:
  using ChunkFn = void (*)(void*, std::size_t);

  /// State shared by the caller and the helpers of one round.
  struct Round {
    std::atomic<std::uint64_t> next{0};  ///< next unclaimed ticket
    std::atomic<std::uint64_t> open{0};  ///< tickets below it may run; kClosed ends the round
    std::atomic<std::uint64_t> done{0};  ///< chunks finished so far
    // The open phase, published before `open` (release) and read after it
    // (acquire).
    std::uint64_t base = 0;
    ChunkFn fn = nullptr;
    void* ctx = nullptr;
  };

  void run_erased(std::size_t chunks, ChunkFn fn, void* ctx);
  /// Claims the next ticket if it lies below `end`.
  static bool claim(Round& round, std::uint64_t end, std::uint64_t& ticket);
  static void help(Round& round);

  Round local_;                    ///< the round when there are no helpers
  std::shared_ptr<Round> shared_;  ///< the round when there are (helpers may outlive us)
  Round* round_;
  std::uint64_t end_ = 0;          ///< one past the last ticket of the latest phase
};

}  // namespace maopt
