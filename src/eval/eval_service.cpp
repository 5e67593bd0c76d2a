#include "eval/eval_service.hpp"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <utility>

#include "circuits/process_variation.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace maopt::eval {

namespace {

thread_local std::string t_tenant;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

std::string journal_path_for(const std::string& cache_dir) {
  if (cache_dir.empty()) return {};
  return (std::filesystem::path(cache_dir) / "eval_cache.bin").string();
}

/// RAII admission grant: blocks in the constructor until the tenant is
/// granted `n` simulation slots, returns them on destruction (every exit
/// path, including exceptions thrown by the inner simulator).
class AdmissionGuard {
 public:
  AdmissionGuard(BatchAdmission* admission, std::string tenant, std::size_t n)
      : admission_(admission), tenant_(std::move(tenant)), n_(n) {
    if (admission_ != nullptr && n_ > 0) admission_->acquire(tenant_, n_);
  }
  ~AdmissionGuard() {
    if (admission_ != nullptr && n_ > 0) admission_->release(tenant_, n_);
  }

  AdmissionGuard(const AdmissionGuard&) = delete;
  AdmissionGuard& operator=(const AdmissionGuard&) = delete;
  AdmissionGuard(AdmissionGuard&&) = delete;
  AdmissionGuard& operator=(AdmissionGuard&&) = delete;

 private:
  BatchAdmission* admission_;
  std::string tenant_;
  std::size_t n_;
};

}  // namespace

ScopedTenant::ScopedTenant(std::string name) : previous_(std::move(t_tenant)) {
  t_tenant = std::move(name);
}

ScopedTenant::~ScopedTenant() { t_tenant = std::move(previous_); }

const std::string& EvalService::current_tenant() { return t_tenant; }

EvalService::EvalService(const ckt::SizingProblem& inner, EvalServiceConfig config)
    : inner_(&inner),
      config_(std::move(config)),
      problem_fp_(problem_fingerprint(inner)) {
  ResultCache::Config cache_config;
  cache_config.memory_capacity = config_.memory_capacity;
  cache_config.journal_path = journal_path_for(config_.cache_dir);
  cache_ = std::make_unique<ResultCache>(std::move(cache_config));
}

EvalService::~EvalService() = default;

ThreadPool& EvalService::batch_pool() const {
  if (config_.shared_pool != nullptr) return *config_.shared_pool;
  const MutexLock lock(pool_mutex_);
  if (!pool_) {
    std::size_t n = config_.num_threads;
    if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    pool_ = std::make_unique<ThreadPool>(n);
  }
  return *pool_;
}

void EvalService::register_tenant(const std::string& name, const std::string& cache_dir) {
  if (name.empty()) return;  // the empty name is the default namespace
  const MutexLock lock(tenants_mutex_);
  if (tenants_.contains(name)) return;
  ResultCache::Config cache_config;
  cache_config.memory_capacity = config_.memory_capacity;
  cache_config.journal_path = journal_path_for(cache_dir);
  tenants_.emplace(name, std::make_unique<ResultCache>(std::move(cache_config)));
}

ResultCache& EvalService::cache_for(const std::string& tenant) const {
  if (tenant.empty()) return *cache_;
  const MutexLock lock(tenants_mutex_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? *cache_ : *it->second;
}

std::unique_ptr<ckt::EvalSession> EvalService::acquire_session() const {
  {
    const MutexLock lock(sessions_mutex_);
    if (!sessions_.empty()) {
      auto session = std::move(sessions_.back());
      sessions_.pop_back();
      return session;
    }
  }
  return inner_->make_session();
}

void EvalService::release_session(std::unique_ptr<ckt::EvalSession> session) const {
  if (session == nullptr) return;
  const MutexLock lock(sessions_mutex_);
  sessions_.push_back(std::move(session));
}

EvalCounters EvalService::counters() const {
  EvalCounters c;
  c.requested = requested_.load(std::memory_order_relaxed);
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.coalesced = coalesced_.load(std::memory_order_relaxed);
  c.simulations = simulations_.load(std::memory_order_relaxed);
  return c;
}

ckt::EvalResult EvalService::evaluate(const Vec& x) const {
  const AdmissionGuard grant(admission_.load(std::memory_order_acquire), t_tenant, 1);
  return evaluate_impl(x, ckt::ProcessVariation{}, cache_for(t_tenant));
}

ckt::EvalResult EvalService::evaluate_at(const Vec& x, const ckt::ProcessVariation& pv) const {
  ckt::validate_process_variation(pv);
  const AdmissionGuard grant(admission_.load(std::memory_order_acquire), t_tenant, 1);
  return evaluate_impl(x, pv, cache_for(t_tenant));
}

std::vector<ckt::EvalResult> EvalService::evaluate_variants(
    const Vec& x, std::span<const ckt::ProcessVariation> pvs) const {
  return fan_out(pvs.size(), [this, &x, &pvs](std::size_t i, ResultCache& cache) {
    return evaluate_impl(x, pvs[i], cache);
  });
}

std::vector<ckt::EvalResult> EvalService::evaluate_batch(std::span<const Vec> xs,
                                                         ThreadPool* /*pool*/) const {
  return fan_out(xs.size(), [this, &xs](std::size_t i, ResultCache& cache) {
    return evaluate_impl(xs[i], ckt::ProcessVariation{}, cache);
  });
}

std::vector<ckt::EvalResult> EvalService::fan_out(
    std::size_t n,
    const std::function<ckt::EvalResult(std::size_t, ResultCache&)>& request) const {
  std::vector<ckt::EvalResult> results(n);
  if (n == 0) return results;
  // This is the scheduler's throttle point: the whole batch is one grant, so
  // a greedy job waits here while other tenants' batches drain. Tenant and
  // cache are resolved on the caller's thread — pool workers never inherit
  // the thread-local namespace.
  const AdmissionGuard grant(admission_.load(std::memory_order_acquire), t_tenant, n);
  ResultCache& cache = cache_for(t_tenant);

  // A throwing request must become a failed result, not a lost batch: the
  // callers (optimizer rounds, sweeps) need every slot filled. It was
  // counted as a miss, and says so.
  const auto run_one = [this, &request, &results, &cache](std::size_t i) {
    try {
      results[i] = request(i, cache);
    } catch (...) {
      results[i] = failure_result(ckt::FailureKind::Exception);
      results[i].cache = ckt::CacheOutcome::Miss;
    }
  };

  if (n == 1) {
    run_one(0);
    return results;
  }
  ThreadPool& pool = batch_pool();
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) futures.push_back(pool.submit([&run_one, i] { run_one(i); }));
  for (auto& fut : futures) fut.get();
  return results;
}

ckt::EvalResult EvalService::evaluate_impl(const Vec& x, const ckt::ProcessVariation& pv,
                                           ResultCache& cache) const {
  requested_.fetch_add(1, std::memory_order_relaxed);
  // Per-variant content address: an enabled variation folds its fingerprint
  // into the problem fingerprint, so every corner / MC instance of a design
  // caches (and dedups) independently; nominal keys are unchanged.
  const std::uint64_t fp =
      pv.enabled() ? problem_fp_ ^ ckt::variation_fingerprint(pv) : problem_fp_;
  const CacheKey key = make_cache_key(fp, x);

  // Fast path: already cached (in this request's tenant namespace).
  const auto hit = [this](Vec metrics) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    ckt::EvalResult result{std::move(metrics), /*simulation_ok=*/true};
    result.cache = ckt::CacheOutcome::Hit;
    return result;
  };
  if (auto metrics = cache.lookup(key)) return hit(std::move(*metrics));

  std::shared_ptr<InFlight> flight;
  bool producer = false;
  {
    const MutexLock lock(inflight_mutex_);
    // Re-check under the lock: a producer may have published between our
    // lookup above and here (publishers insert into the cache *before*
    // erasing their in-flight entry, so this pair of checks has no gap).
    if (auto metrics = cache.lookup(key)) return hit(std::move(*metrics));
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;  // join the running simulation
    } else {
      flight = std::make_shared<InFlight>();
      flight->future = flight->promise.get_future().share();
      inflight_.emplace(key, flight);
      producer = true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  if (!producer) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    ckt::EvalResult result = flight->future.get();
    // The producer's retries and failure kind carry over; its simulation
    // time does not, because no new simulation ran for this request.
    result.cache = ckt::CacheOutcome::Coalesced;
    result.seconds = 0.0;
    // Cross-tenant dedup: a consumer in a different namespace records the
    // shared result in its own cache, so its journal stays self-contained.
    if (result.simulation_ok && flight->published_to != &cache)
      cache.insert(key, fp, x, result.metrics);
    return result;
  }

  // Producer: run the simulation on this thread, publish, then resolve.
  // Nominal evaluation goes through a pooled session, so repeated
  // same-topology designs reuse one prepared testbench and its solver
  // workspaces instead of rebuilding everything per design. Pooled sessions
  // are pinned to the nominal variation; varied evaluations go through the
  // thread-safe variation-pinned primitive instead.
  simulations_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<ckt::EvalSession> session = pv.enabled() ? nullptr : acquire_session();
  ckt::EvalResult result;
  Stopwatch timer;
  try {
    result = session != nullptr ? session->evaluate(x) : inner_->evaluate_at(x, pv);
  } catch (...) {
    // Keep the waiters and the in-flight map consistent even when the inner
    // problem throws (possible when the service wraps a raw problem rather
    // than a ResilientEvaluator).
    {
      const MutexLock lock(inflight_mutex_);
      inflight_.erase(key);
    }
    flight->promise.set_exception(std::current_exception());
    throw;
  }
  result.cache = ckt::CacheOutcome::Miss;
  result.seconds = timer.elapsed_seconds();

  release_session(std::move(session));  // the throw path drops it instead

  if (result.simulation_ok) cache.insert(key, fp, x, result.metrics);
  flight->published_to = &cache;
  {
    const MutexLock lock(inflight_mutex_);
    inflight_.erase(key);
  }
  flight->promise.set_value(result);
  return result;
}

}  // namespace maopt::eval
