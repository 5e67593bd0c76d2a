#include "core/history.hpp"

#include <cmath>
#include <span>
#include <utility>

namespace maopt::core {

const SimRecord* RunHistory::best() const {
  // Failed simulations carry a penalty FoM; they must never become the
  // anchor Algorithm 2 samples around, so only clean finite records count.
  const SimRecord* best = nullptr;
  for (const auto& r : records) {
    if (!r.simulation_ok || !std::isfinite(r.fom)) continue;
    if (!best || r.fom < best->fom) best = &r;
  }
  return best;
}

std::size_t RunHistory::failures() const {
  std::size_t n = 0;
  for (const auto& r : records)
    if (!r.simulation_ok) ++n;
  return n;
}

const SimRecord* RunHistory::best_feasible() const {
  const SimRecord* best = nullptr;
  for (const auto& r : records)
    if (r.feasible && (!best || r.metrics[0] < best->metrics[0])) best = &r;
  return best;
}

std::vector<SimRecord> sample_initial_set(const SizingProblem& problem, std::size_t n, Rng& rng) {
  std::vector<SimRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vec x = problem.random_design(rng);
    ckt::EvalResult eval = problem.evaluate(x);
    records.push_back(to_record(std::move(x), std::move(eval)));
  }
  return records;
}

SimRecord to_record(Vec x, ckt::EvalResult eval) {
  SimRecord record;
  record.x = std::move(x);
  record.metrics = std::move(eval.metrics);
  record.simulation_ok = eval.simulation_ok;
  record.degraded = eval.degraded;
  record.variants_failed = eval.variants_failed;
  record.variants_total = eval.variants_total;
  record.retries = eval.retries;
  record.failure_kind = eval.failure_kind;
  record.cache = eval.cache;
  record.seconds = eval.seconds;
  return record;
}

bool annotate_record(SimRecord& record, const SizingProblem& problem, const FomEvaluator& fom) {
  bool ok = record.simulation_ok && record.metrics.size() == problem.num_metrics();
  for (std::size_t i = 0; ok && i < record.metrics.size(); ++i)
    ok = std::isfinite(record.metrics[i]);
  if (ok) {
    record.fom = fom(record.metrics);
    ok = std::isfinite(record.fom);
  }
  if (!ok) {
    record.metrics = problem.failure_metrics();
    record.fom = fom(record.metrics);
    record.simulation_ok = false;
    record.feasible = false;
    return false;
  }
  record.feasible = problem.feasible(record.metrics);
  return true;
}

void annotate_foms(std::vector<SimRecord>& records, const SizingProblem& problem,
                   const FomEvaluator& fom) {
  for (auto& r : records) annotate_record(r, problem, fom);
}

SimRecord evaluate_record(const SizingProblem& problem, Vec x) {
  std::vector<ckt::EvalResult> eval = problem.evaluate_batch(std::span<const Vec>(&x, 1), nullptr);
  return to_record(std::move(x), std::move(eval.front()));
}

}  // namespace maopt::core
