#include "circuits/variation_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace maopt::ckt {

namespace {

/// Usable variant result: the solver reported success AND the metrics are
/// shaped and finite. A raw fault injector can return ok=true with NaN or
/// garbage-magnitude metrics; treating those as "ok" would let one poisoned
/// variant silently corrupt the aggregate.
bool variant_usable(const EvalResult& r, std::size_t num_metrics) {
  if (!r.simulation_ok || r.metrics.size() != num_metrics) return false;
  for (const double m : r.metrics)
    if (!std::isfinite(m)) return false;
  return true;
}

/// Smallest v such that at least ceil(p*n) of the (ascending sorted) values
/// are <= v.
double upper_quantile(std::vector<double>& values, double p) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto idx = static_cast<std::size_t>(std::ceil(p * n)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

/// Largest v such that at least ceil(p*n) of the values are >= v.
double lower_quantile(std::vector<double>& values, double p) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const std::size_t count = std::min(
      values.size(), std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(p * n))));
  return values[values.size() - count];
}

}  // namespace

const char* to_string(RobustAggregation aggregation) {
  switch (aggregation) {
    case RobustAggregation::WorstCase: return "worst-case";
    case RobustAggregation::KSigma: return "k-sigma";
    case RobustAggregation::YieldQuantile: return "yield-quantile";
  }
  return "unknown";
}

const char* to_string(SweepFailurePolicy policy) {
  switch (policy) {
    case SweepFailurePolicy::FailFast: return "fail-fast";
    case SweepFailurePolicy::PenalizeFailedVariant: return "penalize-failed";
    case SweepFailurePolicy::ConservativeBound: return "conservative-bound";
  }
  return "unknown";
}

std::string SweepStats::report() const {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%llu sweeps (%llu degraded, %llu failed), variants: %llu ok / %llu failed",
                static_cast<unsigned long long>(sweeps),
                static_cast<unsigned long long>(degraded_sweeps),
                static_cast<unsigned long long>(failed_sweeps),
                static_cast<unsigned long long>(variants_ok),
                static_cast<unsigned long long>(variants_failed));
  return buf;
}

VariationSweepProblem::VariationSweepProblem(const SizingProblem& inner,
                                             std::vector<SweepVariant> variants,
                                             SweepPolicyConfig policy, std::string kind)
    : inner_(&inner),
      variants_(std::move(variants)),
      policy_(policy),
      kind_(std::move(kind)) {
  MAOPT_CHECK(!variants_.empty(), "VariationSweepProblem: empty variant list");
  bool any_enabled = false;
  for (const SweepVariant& v : variants_) {
    validate_process_variation(v.pv);
    any_enabled = any_enabled || v.pv.enabled();
  }
  MAOPT_CHECK(!any_enabled || inner.supports_process_variation(),
              "VariationSweepProblem: inner problem has no process-variation support");
  MAOPT_CHECK(std::isfinite(policy_.k_sigma) && policy_.k_sigma >= 0.0,
              "VariationSweepProblem: k_sigma must be finite and >= 0");
  MAOPT_CHECK(policy_.yield_target > 0.0 && policy_.yield_target <= 1.0,
              "VariationSweepProblem: yield_target must be in (0, 1]");
  MAOPT_CHECK(policy_.min_ok_fraction >= 0.0 && policy_.min_ok_fraction <= 1.0,
              "VariationSweepProblem: min_ok_fraction must be in [0, 1]");
  pvs_.reserve(variants_.size());
  for (const SweepVariant& v : variants_) pvs_.push_back(v.pv);
}

Vec VariationSweepProblem::aggregate(const std::vector<const Vec*>& contributing) const {
  const std::size_t m = num_metrics();
  const auto& cs = spec().constraints;
  Vec out(m);

  // Per metric j: is "bigger" the bad direction? The target f0 is minimized,
  // a GreaterEqual constraint is violated from below.
  const auto bigger_is_worse = [&cs](std::size_t j) {
    return j == 0 || cs[j - 1].kind == ConstraintKind::LessEqual;
  };

  std::vector<double> values(contributing.size());
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < contributing.size(); ++i) values[i] = (*contributing[i])[j];
    switch (policy_.aggregation) {
      case RobustAggregation::WorstCase:
        out[j] = bigger_is_worse(j) ? *std::max_element(values.begin(), values.end())
                                    : *std::min_element(values.begin(), values.end());
        break;
      case RobustAggregation::KSigma: {
        double mean = 0.0;
        for (const double v : values) mean += v;
        mean /= static_cast<double>(values.size());
        double var = 0.0;
        for (const double v : values) var += (v - mean) * (v - mean);
        var /= static_cast<double>(values.size());
        const double spread = policy_.k_sigma * std::sqrt(var);
        out[j] = bigger_is_worse(j) ? mean + spread : mean - spread;
        break;
      }
      case RobustAggregation::YieldQuantile:
        out[j] = bigger_is_worse(j) ? upper_quantile(values, policy_.yield_target)
                                    : lower_quantile(values, policy_.yield_target);
        break;
    }
  }
  return out;
}

EvalResult VariationSweepProblem::evaluate(const Vec& x) const {
  const std::size_t n = variants_.size();
  const Stopwatch sweep_timer;

  // Evaluate every variant in one call: batched when the inner problem is an
  // eval::EvalService, serial through evaluate_at otherwise.
  const std::vector<EvalResult> results = inner_->evaluate_variants(x, pvs_);
  MAOPT_CHECK(results.size() == n,
              "VariationSweepProblem: evaluate_variants returned a mis-sized batch");

  const std::size_t m = num_metrics();
  std::vector<bool> usable(n, false);
  std::size_t ok_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    usable[i] = variant_usable(results[i], m);
    if (usable[i]) ++ok_count;
  }
  const std::size_t failed_count = n - ok_count;

  // Apply the partial-failure policy and aggregate.
  EvalResult out;
  out.variants_total = static_cast<std::uint32_t>(n);
  out.variants_failed = static_cast<std::uint32_t>(failed_count);
  const Vec penalty = inner_->failure_metrics();
  if (ok_count == 0 ||
      (failed_count > 0 && policy_.failure_policy == SweepFailurePolicy::FailFast) ||
      (policy_.failure_policy == SweepFailurePolicy::ConservativeBound &&
       static_cast<double>(ok_count) <
           policy_.min_ok_fraction * static_cast<double>(n))) {
    out.metrics = penalty;
    out.simulation_ok = false;
  } else {
    std::vector<const Vec*> contributing;
    contributing.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (usable[i]) {
        contributing.push_back(&results[i].metrics);
      } else if (policy_.failure_policy == SweepFailurePolicy::PenalizeFailedVariant) {
        contributing.push_back(&penalty);
      }
      // ConservativeBound: failed variants simply drop out.
    }
    out.metrics = aggregate(contributing);
    out.simulation_ok = true;
    out.degraded = failed_count > 0;
  }

  sweeps_.fetch_add(1, std::memory_order_relaxed);
  variants_ok_.fetch_add(ok_count, std::memory_order_relaxed);
  variants_failed_.fetch_add(failed_count, std::memory_order_relaxed);
  if (out.degraded) degraded_sweeps_.fetch_add(1, std::memory_order_relaxed);
  if (!out.simulation_ok) failed_sweeps_.fetch_add(1, std::memory_order_relaxed);

  // Emit the whole telemetry bracket atomically (see set_observer()).
  if (observer_ != nullptr) {
    const double total_seconds = sweep_timer.elapsed_seconds();
    const MutexLock lock(emit_mutex_);
    const std::uint64_t id = next_sweep_id_++;
    obs::SweepStarted started;
    started.sweep_id = id;
    started.kind = kind_;
    started.aggregation = to_string(policy_.aggregation);
    started.variants = n;
    observer_->on_sweep_started(started);
    for (std::size_t i = 0; i < n; ++i) {
      obs::SweepVariantEvaluated ev;
      ev.sweep_id = id;
      ev.variant = i;
      ev.label = variants_[i].label;
      ev.ok = usable[i];
      ev.fom0 = usable[i] ? results[i].metrics[0] : 0.0;
      ev.seconds = results[i].seconds;
      observer_->on_sweep_variant_evaluated(ev);
    }
    obs::SweepCompleted done;
    done.sweep_id = id;
    done.variants_ok = ok_count;
    done.variants_failed = failed_count;
    done.degraded = out.degraded;
    done.policy = to_string(policy_.failure_policy);
    done.seconds = total_seconds;
    observer_->on_sweep_completed(done);
  }

  return out;
}

SweepStats VariationSweepProblem::stats() const {
  SweepStats s;
  s.sweeps = sweeps_.load(std::memory_order_relaxed);
  s.degraded_sweeps = degraded_sweeps_.load(std::memory_order_relaxed);
  s.failed_sweeps = failed_sweeps_.load(std::memory_order_relaxed);
  s.variants_ok = variants_ok_.load(std::memory_order_relaxed);
  s.variants_failed = variants_failed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace maopt::ckt
