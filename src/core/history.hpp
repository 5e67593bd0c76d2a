// Shared bookkeeping for optimization runs: every simulated design is a
// SimRecord; a RunHistory stores them in simulation order together with the
// best-FoM-so-far trajectory (Fig. 5) and wall-clock breakdowns (the
// runtime rows of Tables II/IV/VI and the Section III-C analysis).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "circuits/fom.hpp"
#include "circuits/sizing_problem.hpp"
#include "common/rng.hpp"

namespace maopt::core {

using ckt::FomEvaluator;
using ckt::SizingProblem;
using linalg::Vec;

struct SimRecord {
  Vec x;
  Vec metrics;
  double fom = 0.0;
  bool feasible = false;
  bool simulation_ok = false;
  /// Robustness provenance, copied from EvalResult when the problem is a
  /// corner / Monte Carlo sweep (variation_sweep.hpp): variants_total = 0
  /// marks a plain single-point simulation; degraded marks an aggregate
  /// shaped by a partial-failure policy. Persisted in checkpoints (format
  /// v2) so resumed runs keep their failure provenance.
  bool degraded = false;
  std::uint32_t variants_failed = 0;
  std::uint32_t variants_total = 0;
  /// How the simulation was produced, copied from EvalResult (retries,
  /// failure kind, cache outcome, seconds). Telemetry reads it as the record
  /// is appended; checkpoints do not persist it.
  std::uint32_t retries = 0;
  std::optional<ckt::FailureKind> failure_kind;
  ckt::CacheOutcome cache = ckt::CacheOutcome::Uncached;
  double seconds = 0.0;
};

struct RunHistory {
  std::string algorithm;
  std::vector<SimRecord> records;      ///< simulation order, initial samples first
  std::vector<double> best_fom_after;  ///< best FoM after each *post-initial* simulation
  std::size_t num_initial = 0;

  double wall_seconds = 0.0;   ///< total optimization wall clock (excl. initial sampling)
  double sim_seconds = 0.0;    ///< time inside SizingProblem::evaluate
  /// Critic + actor training time, wall clock: for MA-Opt, each critic
  /// round plus each lockstep actor round (its candidate picks included)
  /// that proposed a simulated design.
  double train_seconds = 0.0;
  double ns_seconds = 0.0;     ///< near-sampling scan time

  bool aborted = false;      ///< circuit breaker tripped; the history is partial
  std::string abort_reason;  ///< human-readable cause when aborted

  /// Record with the lowest FoM (feasibility folds into FoM by construction).
  /// Failed simulations carry a penalty FoM and are skipped, so the result
  /// is safe to use as a near-sampling anchor; nullptr if every record
  /// failed (or the history is empty).
  const SimRecord* best() const;
  /// Best record that satisfies all constraints; nullptr if none.
  const SimRecord* best_feasible() const;
  /// Number of post-initial simulations performed.
  std::size_t simulations_used() const { return records.size() - num_initial; }
  /// Number of failed (simulation_ok = false) records, initial included.
  std::size_t failures() const;
};

/// Evaluates `n` uniform random designs (the paper's X_init protocol:
/// 100 random designs simulated once and shared across all methods).
std::vector<SimRecord> sample_initial_set(const SizingProblem& problem, std::size_t n, Rng& rng);

/// The record of design `x` evaluated to `eval`: metrics, status and every
/// provenance field (fom / feasible are left for annotate_record).
SimRecord to_record(Vec x, ckt::EvalResult eval);

/// Fills fom / feasible for one record, scrubbing failures: when the
/// simulation failed or produced non-finite metrics or a non-finite FoM, the
/// metrics are replaced by problem.failure_metrics(), the FoM by the finite
/// penalty FoM of those metrics, and the record is marked
/// simulation_ok = false / infeasible. Returns true for a clean simulation.
bool annotate_record(SimRecord& record, const SizingProblem& problem, const FomEvaluator& fom);

/// Fills fom / feasible fields using `fom` (initial records are created
/// before the FoM reference exists). Applies annotate_record per record, so
/// NaN/Inf metrics never survive into a history.
void annotate_foms(std::vector<SimRecord>& records, const SizingProblem& problem,
                   const FomEvaluator& fom);

/// Evaluates `x` as a one-item SizingProblem::evaluate_batch, so a solver
/// exception becomes a {failure_metrics, simulation_ok=false} record instead
/// of propagating (fom / feasible are left for annotate_record).
SimRecord evaluate_record(const SizingProblem& problem, Vec x);

}  // namespace maopt::core
