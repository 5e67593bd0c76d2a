#include "spice/ac_analysis.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/check.hpp"
#include "linalg/dispatch.hpp"
#include "common/thread_annotations.hpp"
#include "linalg/lu.hpp"

namespace maopt::spice {

namespace {

// A = G + jωC over the flattened n*n system: out is the interleaved
// (re, im) view of the complex MNA matrix. Elementwise and branch-free, so
// the AVX2 clone processes 2 complex entries per 4-wide vector op.
MAOPT_TARGET_CLONES
MAOPT_HOT void combine_gc(const double* g, const double* c, double omega, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[2 * i] = g[i];
    out[2 * i + 1] = omega * c[i];
  }
}

}  // namespace

void combine_ac_system(const Mat& g, const Mat& c, double omega, CMat& a) {
  a.ensure_shape(g.rows(), g.cols());
  combine_gc(g.data().data(), c.data().data(), omega,
             reinterpret_cast<double*>(a.data().data()), g.data().size());
}

std::vector<double> log_frequency_grid(double f_start, double f_stop, int points_per_decade) {
  MAOPT_CHECK(f_start > 0.0 && f_stop >= f_start && std::isfinite(f_stop) && points_per_decade >= 1,
              "log_frequency_grid: needs 0 < f_start <= f_stop, finite, and points_per_decade >= 1");
  // Each point is one complex solve; the shipped decks and circuits use at
  // most a few hundred. The count is checked as a double, before the cast.
  constexpr double kMaxPoints = 10000;
  const double points = std::ceil(std::log10(f_stop / f_start) * points_per_decade) + 1;
  MAOPT_CHECK(points <= kMaxPoints, "log_frequency_grid: more than 10000 frequency points");
  std::vector<double> freqs;
  const int n = std::max(2, static_cast<int>(points));
  freqs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    freqs.push_back(f_start * std::pow(f_stop / f_start, t));
  }
  return freqs;
}

std::vector<AcSweep> AcAnalysis::run_multi(Netlist& netlist, const Vec& op,
                                           const std::vector<double>& frequencies,
                                           const std::vector<CVec>& excitations) const {
  if (!netlist.prepared()) netlist.prepare();
  std::vector<AcSweep> sweeps(excitations.size());
  for (auto& sweep : sweeps) {
    sweep.frequencies = frequencies;
    sweep.solutions.reserve(frequencies.size());
  }
  netlist.build_ac_parts(op, g_, c_, rhs_);  // rhs_ discarded: callers pass excitations
  for (const double f : frequencies) {
    const double omega = 2.0 * std::numbers::pi * f;
    combine_ac_system(g_, c_, omega, lu_.matrix());
    if (!linalg::lu_factor(lu_)) throw std::runtime_error("LU: matrix is singular");
    for (std::size_t e = 0; e < excitations.size(); ++e) {
      sweeps[e].solutions.emplace_back();
      linalg::lu_solve_factored(lu_, excitations[e], sweeps[e].solutions.back());
    }
  }
  return sweeps;
}

AcSweep AcAnalysis::run(Netlist& netlist, const Vec& op, const std::vector<double>& frequencies) const {
  if (!netlist.prepared()) netlist.prepare();
  AcSweep sweep;
  sweep.frequencies = frequencies;
  sweep.solutions.reserve(frequencies.size());
  netlist.build_ac_parts(op, g_, c_, rhs_);
  for (const double f : frequencies) {
    const double omega = 2.0 * std::numbers::pi * f;
    combine_ac_system(g_, c_, omega, lu_.matrix());
    if (!linalg::lu_factor(lu_)) throw std::runtime_error("LU: matrix is singular");
    sweep.solutions.emplace_back();
    linalg::lu_solve_factored(lu_, rhs_, sweep.solutions.back());
  }
  return sweep;
}

}  // namespace maopt::spice
