#include "common/phase_runner.hpp"

#include <limits>

namespace maopt {

namespace {

constexpr std::uint64_t kClosed = std::numeric_limits<std::uint64_t>::max();

// Spin this many pauses (about 25 us on a current Xeon) before blocking.
// Phases last tens of microseconds, so the spin often catches the next
// phase without a futex round trip; spinning longer would burn cores that
// other threads need when the machine is oversubscribed (a daemon running
// several jobs). A blocked helper delays nobody: it holds no chunk.
constexpr int kSpins = 1024;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Waits until `ready(value)` holds and returns that value.
template <typename Ready>
std::uint64_t await(const std::atomic<std::uint64_t>& a, Ready ready) {
  std::uint64_t v = a.load(std::memory_order_acquire);
  for (int spin = 0; !ready(v); ++spin) {
    if (spin < kSpins)
      cpu_relax();
    else
      a.wait(v, std::memory_order_acquire);
    v = a.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

PhaseRunner::PhaseRunner(ThreadPool* pool, std::size_t helpers) : round_(&local_) {
  if (pool == nullptr || helpers == 0) return;
  shared_ = std::make_shared<Round>();
  round_ = shared_.get();
  for (std::size_t h = 0; h < helpers; ++h) pool->submit([round = shared_] { help(*round); });
}

PhaseRunner::~PhaseRunner() {
  round_->open.store(kClosed, std::memory_order_release);
  if (shared_) round_->open.notify_all();
}

bool PhaseRunner::claim(Round& round, std::uint64_t end, std::uint64_t& ticket) {
  ticket = round.next.load(std::memory_order_relaxed);
  while (ticket < end)
    if (round.next.compare_exchange_weak(ticket, ticket + 1, std::memory_order_relaxed))
      return true;
  return false;
}

void PhaseRunner::help(Round& round) {
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for a phase this helper has not worked on yet, or the round's end.
    const std::uint64_t open =
        await(round.open, [seen](std::uint64_t v) { return v != seen; });
    if (open == kClosed) return;
    seen = open;
    std::uint64_t ticket = 0;
    while (claim(round, open, ticket)) {
      // A claimed ticket keeps its phase open until its chunk is done, so
      // base/fn/ctx still describe that phase here.
      round.fn(round.ctx, ticket - round.base);
      if (round.done.fetch_add(1, std::memory_order_acq_rel) + 1 == open)
        round.done.notify_all();
    }
  }
}

void PhaseRunner::run_erased(std::size_t chunks, ChunkFn fn, void* ctx) {
  if (chunks == 0) return;
  Round& round = *round_;
  const std::uint64_t base = end_;
  end_ = base + chunks;
  round.base = base;
  round.fn = fn;
  round.ctx = ctx;
  round.open.store(end_, std::memory_order_release);
  if (shared_) round.open.notify_all();
  std::uint64_t ticket = 0;
  while (claim(round, end_, ticket)) {
    fn(ctx, ticket - base);
    round.done.fetch_add(1, std::memory_order_release);
  }
  await(round.done, [this](std::uint64_t v) { return v >= end_; });
}

}  // namespace maopt
