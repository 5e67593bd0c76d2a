// EvalService — the single owner of simulator calls.
//
// A SizingProblem decorator (same shape as ResilientEvaluator, and designed
// to wrap it) that gives every optimizer, point-path or batched, the same
// three wins:
//
//   * Content-addressed result cache. Each request is keyed by
//     (problem fingerprint, design), bit-exact; a hit returns the stored
//     metrics without touching the simulator. Two levels — in-memory LRU +
//     optional on-disk journal (result_cache.hpp) — so results survive the
//     process and warm-start later runs.
//   * In-flight deduplication. Concurrent requests for the same key share
//     one underlying simulation: the first becomes the producer, the rest
//     block on its shared future and receive the identical result.
//   * Batched evaluation. evaluate_batch() and evaluate_variants() fan a
//     span of requests over an internal ThreadPool, so the N_act proposals of
//     one MA-Opt iteration, or the variants of one corner / Monte Carlo
//     sweep, become one parallel batch.
//
// Every result says how it was produced: the service stamps its cache
// outcome and simulation time on the EvalResult it returns (sizing_problem.hpp).
//
// Budget semantics: a cache hit still *counts* as a simulation for budget
// purposes — callers consume budget per request exactly as before — the
// service only removes the wall-clock cost. This keeps trajectories
// bit-identical between cold and warm runs at the same seed, which is what
// makes the persistence smoke test (same seed twice) meaningful.
//
// Only simulation_ok results are cached; failures may be transient and are
// re-attempted on every request.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"

#include "circuits/sizing_problem.hpp"
#include "eval/result_cache.hpp"

namespace maopt {
class ThreadPool;
}

namespace maopt::eval {

struct EvalServiceConfig {
  /// Workers for evaluate_batch(); 0 uses hardware_concurrency. The pool is
  /// created lazily on the first batch call, so point-path users pay nothing.
  std::size_t num_threads = 0;
  /// Externally-owned worker pool shared across services (the daemon gives
  /// every per-problem EvalService one pool so N jobs contend for one set of
  /// simulator workers). Overrides num_threads; must outlive the service.
  ThreadPool* shared_pool = nullptr;
  std::size_t memory_capacity = 4096;  ///< L1 LRU entries
  /// Directory for the persistent journal (`eval_cache.bin` inside it);
  /// empty disables persistence (memory-only cache).
  std::string cache_dir;
};

/// Monotonic service totals. Invariants (validated by check_telemetry.py):
///   hits + misses == requested
///   coalesced     <= misses
///   simulations   == misses - coalesced   (underlying simulator calls)
struct EvalCounters {
  std::uint64_t requested = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t simulations = 0;
};

/// Simulation-grant gate, called at every public evaluation entry point.
/// acquire() blocks the calling tenant until the scheduler grants it `n`
/// simulation slots; release() returns them once the work (simulated, hit,
/// or coalesced — grants meter *requests*, the budget currency) completes.
/// Implementations must be thread-safe and must always eventually grant —
/// the service holds no lock while blocked in acquire(). The daemon's
/// serve::FairShareScheduler is the production implementation.
class BatchAdmission {
 public:
  BatchAdmission() = default;
  BatchAdmission(const BatchAdmission&) = default;
  BatchAdmission& operator=(const BatchAdmission&) = default;
  BatchAdmission(BatchAdmission&&) = default;
  BatchAdmission& operator=(BatchAdmission&&) = default;
  virtual ~BatchAdmission() = default;

  virtual void acquire(const std::string& tenant, std::size_t n) = 0;
  virtual void release(const std::string& tenant, std::size_t n) = 0;
};

/// Scopes the calling thread to a tenant namespace: cache lookups/inserts on
/// this thread go to the tenant's ResultCache (see
/// EvalService::register_tenant) and admission grants are accounted to it.
/// Thread-local and recursive-safe; the previous tenant is restored on
/// destruction. Pool workers do NOT inherit the caller's tenant — the
/// service captures it at the API entry point and threads it through.
class ScopedTenant {
 public:
  explicit ScopedTenant(std::string name);
  ~ScopedTenant();

  ScopedTenant(const ScopedTenant&) = delete;
  ScopedTenant& operator=(const ScopedTenant&) = delete;
  ScopedTenant(ScopedTenant&&) = delete;
  ScopedTenant& operator=(ScopedTenant&&) = delete;

 private:
  std::string previous_;
};

class EvalService final : public ckt::SizingProblem {
 public:
  /// `inner` is not owned and must outlive this service.
  explicit EvalService(const ckt::SizingProblem& inner, EvalServiceConfig config = {});
  ~EvalService() override;

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override {
    return inner_->parameter_names();
  }
  Vec failure_metrics() const override { return inner_->failure_metrics(); }

  /// Point path: cache lookup -> in-flight join -> simulate. Thread-safe
  /// whenever the inner problem's evaluate() is. Stamps the cache outcome
  /// and simulation seconds on the result; an inner exception propagates.
  ckt::EvalResult evaluate(const Vec& x) const override;

  /// Variation-pinned point path: same cache/dedup pipeline under a
  /// per-variant key (problem fingerprint folded with the variation
  /// fingerprint when `pv` is enabled — nominal keys are unchanged, so
  /// existing journals stay valid). Enabled variations bypass the pooled
  /// sessions (those are pinned to the nominal setting) and evaluate through
  /// the inner problem's evaluate_at.
  ckt::EvalResult evaluate_at(const Vec& x,
                              const ckt::ProcessVariation& pv) const override;
  bool supports_process_variation() const override {
    return inner_->supports_process_variation();
  }
  std::uint64_t content_fingerprint() const override { return inner_->content_fingerprint(); }

  /// Fans one design's variants over the batch pool, each through the
  /// variation-pinned point path above, under one admission grant. A variant
  /// whose simulation throws comes back as a failed EvalResult.
  std::vector<ckt::EvalResult> evaluate_variants(
      const Vec& x, std::span<const ckt::ProcessVariation> pvs) const override;

  /// Batched path: evaluates every design over the service's own pool (the
  /// caller's `pool` is not used) under one admission grant; duplicates
  /// within the batch coalesce onto one simulation. Results are positional;
  /// a throwing item comes back as a failed EvalResult.
  std::vector<ckt::EvalResult> evaluate_batch(std::span<const Vec> xs,
                                              ThreadPool* pool) const override;

  EvalCounters counters() const;

  /// Stable identity of the wrapped problem (see problem_fingerprint()).
  std::uint64_t fingerprint() const { return problem_fp_; }

  /// Cached results for the wrapped problem, in insertion order — the feed
  /// for warm starts. Reads the calling thread's tenant namespace.
  std::vector<CachedEval> cached() const {
    return cache_for(current_tenant()).entries_for(problem_fp_);
  }

  ResultCache& cache() const { return *cache_; }
  const EvalServiceConfig& config() const { return config_; }

  /// Registers a tenant namespace: requests made under ScopedTenant(name) go
  /// through a private ResultCache whose journal lives in `cache_dir`
  /// (`eval_cache.bin` inside it; empty = memory-only). Journals are fully
  /// isolated per tenant while the in-flight dedup layer stays shared, so
  /// two tenants asking for the same design still share one simulation.
  /// Idempotent for an existing name; never removed for the service's life.
  void register_tenant(const std::string& name, const std::string& cache_dir = {});

  /// Installs the simulation-grant gate consulted by every public evaluation
  /// entry (not owned, may be null to remove; must outlive its installation).
  void set_admission(BatchAdmission* admission) {
    admission_.store(admission, std::memory_order_release);
  }

  /// The calling thread's tenant namespace (empty = the default namespace).
  static const std::string& current_tenant();

 private:
  struct InFlight {
    std::promise<ckt::EvalResult> promise;
    std::shared_future<ckt::EvalResult> future;
    /// Producer's namespace, written before the promise resolves.
    ResultCache* published_to = nullptr;
  };

  /// The tenant's ResultCache (the default cache for the empty / an unknown
  /// name). References stay valid for the service's lifetime.
  ResultCache& cache_for(const std::string& tenant) const;

  ckt::EvalResult evaluate_impl(const Vec& x, const ckt::ProcessVariation& pv,
                                ResultCache& cache) const;
  /// Runs request(i, cache) for i in [0, n) over the batch pool under one
  /// admission grant for the calling thread's tenant; a throwing request
  /// becomes a failed result.
  std::vector<ckt::EvalResult> fan_out(
      std::size_t n,
      const std::function<ckt::EvalResult(std::size_t, ResultCache&)>& request) const;
  ThreadPool& batch_pool() const;

  /// Session pool: producers check a session out for the duration of one
  /// simulation and return it afterwards, so concurrent batch workers each
  /// drive their own persistent testbench. Sessions amortize netlist
  /// construction and solver workspaces across same-topology designs. They
  /// are all nominal (make_session()): problems hold no variation state, so
  /// a nominal key always means a nominal simulation, and an enabled
  /// variation goes through the inner evaluate_at instead. A session whose
  /// evaluation threw is discarded, not returned.
  std::unique_ptr<ckt::EvalSession> acquire_session() const;
  void release_session(std::unique_ptr<ckt::EvalSession> session) const;

  const ckt::SizingProblem* inner_;
  EvalServiceConfig config_;
  std::uint64_t problem_fp_;
  std::unique_ptr<ResultCache> cache_;

  /// Lock hierarchy (DESIGN.md "Lock hierarchy"): inflight_mutex_ is held
  /// while calling into ResultCache (whose mutex_ is below it); the other two
  /// are leaves. No maopt lock is ever taken while holding pool_mutex_ or
  /// sessions_mutex_.
  mutable Mutex inflight_mutex_;
  mutable std::unordered_map<CacheKey, std::shared_ptr<InFlight>, CacheKeyHash> inflight_
      MAOPT_GUARDED_BY(inflight_mutex_);

  mutable Mutex pool_mutex_;
  mutable std::unique_ptr<ThreadPool> pool_ MAOPT_GUARDED_BY(pool_mutex_);

  mutable Mutex sessions_mutex_;
  mutable std::vector<std::unique_ptr<ckt::EvalSession>> sessions_
      MAOPT_GUARDED_BY(sessions_mutex_);  ///< idle sessions

  /// Leaf lock, held only for map resolution (never across cache or
  /// simulator calls). Tenant caches are append-only for the service's life.
  mutable Mutex tenants_mutex_;
  mutable std::unordered_map<std::string, std::unique_ptr<ResultCache>> tenants_
      MAOPT_GUARDED_BY(tenants_mutex_);

  std::atomic<BatchAdmission*> admission_{nullptr};

  mutable std::atomic<std::uint64_t> requested_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> coalesced_{0};
  mutable std::atomic<std::uint64_t> simulations_{0};
};

}  // namespace maopt::eval
