// Figure-of-merit function g[f(x)] (paper Eq. 2).
//
// As discussed in DESIGN.md, Eq. 2 read literally penalizes satisfied
// constraints (the absolute value is non-negative); we implement the
// intended DNN-Opt semantics:
//
//   g = w0 * f0 / f0_ref  +  sum_i min(1, w_i * viol_i)
//
// where viol_i is the signed normalized violation (0 when satisfied). The
// reference f0_ref is the median |f0| of the initial sample set, which puts
// the target term on a comparable scale across circuits so that Fig. 5's
// log10(average FoM) plots are meaningful. A design is strictly better than
// every infeasible design once feasible, and feasible designs are ranked by
// the target metric, because each clamped penalty term is >= the largest
// possible target contribution by construction (w0 << 1).
#pragma once

#include <span>

#include "circuits/sizing_problem.hpp"

namespace maopt::ckt {

/// How Eq. 2's constraint terms are interpreted (see the header comment and
/// DESIGN.md): `Corrected` penalizes only violations (DNN-Opt semantics,
/// the default everywhere); `LiteralEq2` applies min(1, w*|f-c|/|c|) exactly
/// as printed, which also penalizes satisfied constraints — kept selectable
/// so the ablation bench can demonstrate why the literal reading cannot be
/// what the authors ran.
enum class FomSemantics { Corrected, LiteralEq2 };

class FomEvaluator {
 public:
  /// `f0_reference` must be positive; pass the median |f0| of the initial
  /// sample set (use fit_reference for that).
  FomEvaluator(const SizingProblem& problem, double f0_reference,
               FomSemantics semantics = FomSemantics::Corrected);

  /// Builds an evaluator with f0_ref = median |f0| over `metric_rows`.
  static FomEvaluator fit_reference(const SizingProblem& problem,
                                    const std::vector<Vec>& metric_rows);

  /// g[f] for a metric vector [f0, f1..fm].
  double operator()(std::span<const double> metrics) const;

  /// Gradient of g with respect to each metric (subgradient at clamp
  /// boundaries); used to backpropagate through the critic during actor
  /// training.
  Vec gradient(std::span<const double> metrics) const;
  /// Allocation-free gradient(): writes every entry of `grad`, which must
  /// have one entry per metric.
  void gradient_into(std::span<const double> metrics, std::span<double> grad) const;

  double f0_reference() const { return f0_ref_; }
  FomSemantics semantics() const { return semantics_; }
  const SizingProblem& problem() const { return *problem_; }

 private:
  const SizingProblem* problem_;
  double f0_ref_;
  FomSemantics semantics_;
};

}  // namespace maopt::ckt
