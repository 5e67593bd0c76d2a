// LU decomposition with partial pivoting, real and complex. This is the
// workhorse behind every MNA solve in the circuit simulator.
//
// The caller owns an LuWorkspace, assembles the system directly into
// ws.matrix(), factors IN PLACE (lu_factor, no copy), and back-substitutes
// (lu_solve_factored) as many times as it likes. Repeated solves of
// same-dimension systems reuse every buffer, so a Newton loop, an AC
// frequency sweep, or a transient run performs zero steady-state
// allocations. Singularity is reported by return value (no exception — the
// DC continuation ladder treats a singular Jacobian as an ordinary
// escalation signal).
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace maopt::linalg {

template <typename T>
class LuWorkspace;

/// Factors ws.matrix() in place (partial pivoting). Returns false — leaving
/// the workspace unfactored — when the matrix is numerically singular.
template <typename T>
bool lu_factor(LuWorkspace<T>& ws);

/// x = A^{-1} b for a factored workspace; x is resized, b is untouched.
/// b and x must not alias.
template <typename T>
void lu_solve_factored(const LuWorkspace<T>& ws, const std::vector<T>& b, std::vector<T>& x);

/// x = A^{-T} b (plain transpose, not conjugate) for a factored workspace.
/// The noise analysis adjoint solve.
template <typename T>
void lu_solve_factored_transposed(const LuWorkspace<T>& ws, const std::vector<T>& b,
                                  std::vector<T>& x);

/// Caller-owned pivoted factorization storage. Assemble into matrix(), call
/// lu_factor(), then lu_solve_factored() any number of times. Reusing one
/// workspace across same-dimension systems never reallocates.
template <typename T>
class LuWorkspace {
 public:
  /// The system matrix: assembled by the caller, overwritten by the factors.
  /// Any write invalidates a previous factorization (re-run lu_factor).
  Matrix<T>& matrix() {
    factored_ = false;
    return a_;
  }
  const Matrix<T>& matrix() const { return a_; }

  std::size_t size() const { return a_.rows(); }
  bool factored() const { return factored_; }

  /// Pivot sign * product of U's diagonal (valid after a successful factor).
  T determinant() const;

 private:
  template <typename U>
  friend bool lu_factor(LuWorkspace<U>& ws);
  template <typename U>
  friend void lu_solve_factored(const LuWorkspace<U>& ws, const std::vector<U>& b,
                                std::vector<U>& x);
  template <typename U>
  friend void lu_solve_factored_transposed(const LuWorkspace<U>& ws, const std::vector<U>& b,
                                           std::vector<U>& x);

  Matrix<T> a_;
  std::vector<std::size_t> perm_;
  // Reciprocals of U's diagonal, captured during elimination (where each
  // pivot's inverse is computed anyway). Back substitution multiplies by
  // these instead of dividing — for complex systems that replaces n full
  // complex divisions per solve with cheap multiplies.
  std::vector<T> inv_diag_;
  // Intermediate for the transposed (adjoint) solve; mutable so repeated
  // noise-analysis solves on a const workspace stay allocation-free.
  mutable std::vector<T> scratch_;
  int perm_sign_ = 1;
  bool factored_ = false;
};

using LuWorkReal = LuWorkspace<double>;
using LuWorkComplex = LuWorkspace<std::complex<double>>;

extern template class LuWorkspace<double>;
extern template class LuWorkspace<std::complex<double>>;
extern template bool lu_factor(LuWorkspace<double>&);
extern template bool lu_factor(LuWorkspace<std::complex<double>>&);
extern template void lu_solve_factored(const LuWorkspace<double>&, const std::vector<double>&,
                                       std::vector<double>&);
extern template void lu_solve_factored(const LuWorkspace<std::complex<double>>&,
                                       const std::vector<std::complex<double>>&,
                                       std::vector<std::complex<double>>&);
extern template void lu_solve_factored_transposed(const LuWorkspace<double>&,
                                                  const std::vector<double>&,
                                                  std::vector<double>&);
extern template void lu_solve_factored_transposed(const LuWorkspace<std::complex<double>>&,
                                                  const std::vector<std::complex<double>>&,
                                                  std::vector<std::complex<double>>&);

}  // namespace maopt::linalg
