#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "linalg/dispatch.hpp"

namespace maopt::linalg {
namespace {

// --- Whole in-place factorization kernels: pivot search, row swap, and the
// rank-1 trailing update all live in ONE dispatched function. MNA systems
// are small (n ~ 10), so a per-pivot-step kernel call pays more in indirect
// ifunc dispatch than in arithmetic — hoisting the k-loop inside the kernel
// removes ~n function calls per factorization from the sweep hot path. The
// j-loops are elementwise-independent so the AVX2 clone vectorizes them
// without changing any rounding (no reductions).

MAOPT_TARGET_CLONES
MAOPT_HOT bool factor_kernel(double* a, std::size_t n, std::size_t* perm, double* inv_diag, int* sign) {
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest magnitude in column k on/below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(a[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = std::abs(a[i * n + k]);
      if (m > best) {
        best = m;
        pivot = i;
      }
    }
    if (best < 1e-300) return false;
    double* rowk = a + k * n;
    if (pivot != k) {
      double* rowp = a + pivot * n;
      for (std::size_t j = 0; j < n; ++j) std::swap(rowk[j], rowp[j]);
      std::swap(perm[k], perm[pivot]);
      *sign = -*sign;
    }
    const double inv_pivot = 1.0 / rowk[k];
    inv_diag[k] = inv_pivot;
    for (std::size_t i = k + 1; i < n; ++i) {
      double* rowi = a + i * n;
      const double factor = rowi[k] * inv_pivot;
      rowi[k] = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) rowi[j] -= factor * rowk[j];
    }
  }
  return true;
}

// Complex rows viewed as interleaved (re, im) doubles. The naive multiply
// below is exactly what std::complex computes for finite operands, written
// out so the compiler can vectorize across the row; the pivot magnitude
// keeps std::abs(std::complex) semantics (hypot) so pivot choices are
// unchanged from the generic path.
MAOPT_TARGET_CLONES
MAOPT_HOT bool factor_kernel_cplx(double* a, std::size_t n, std::size_t* perm, double* inv_diag, int* sign) {
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    double best = std::hypot(a[2 * (k * n + k)], a[2 * (k * n + k) + 1]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = std::hypot(a[2 * (i * n + k)], a[2 * (i * n + k) + 1]);
      if (m > best) {
        best = m;
        pivot = i;
      }
    }
    if (best < 1e-300) return false;
    double* rowk = a + 2 * k * n;
    if (pivot != k) {
      double* rowp = a + 2 * pivot * n;
      for (std::size_t j = 0; j < 2 * n; ++j) std::swap(rowk[j], rowp[j]);
      std::swap(perm[k], perm[pivot]);
      *sign = -*sign;
    }
    const std::complex<double> piv{rowk[2 * k], rowk[2 * k + 1]};
    const std::complex<double> inv_pivot = std::complex<double>{1.0} / piv;
    const double ir = inv_pivot.real(), ii = inv_pivot.imag();
    inv_diag[2 * k] = ir;
    inv_diag[2 * k + 1] = ii;
    for (std::size_t i = k + 1; i < n; ++i) {
      double* rowi = a + 2 * i * n;
      const double cr = rowi[2 * k], ci = rowi[2 * k + 1];
      const double fr = cr * ir - ci * ii;
      const double fi = cr * ii + ci * ir;
      rowi[2 * k] = fr;
      rowi[2 * k + 1] = fi;
      if (fr == 0.0 && fi == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        const double br = rowk[2 * j], bi = rowk[2 * j + 1];
        rowi[2 * j] -= fr * br - fi * bi;
        rowi[2 * j + 1] -= fr * bi + fi * br;
      }
    }
  }
  return true;
}

// Triangular substitution over the interleaved (re, im) view of a factored
// complex system: forward with L's unit diagonal, then backward multiplying
// by the stored pivot reciprocals. Spelled out in real arithmetic so no
// library complex-multiply/divide calls land on the sweep hot path.
MAOPT_TARGET_CLONES
MAOPT_HOT void trisolve_cplx(const double* lu, const double* inv_diag, double* x, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const double* row = lu + 2 * i * n;
    double sr = x[2 * i], si = x[2 * i + 1];
    for (std::size_t j = 0; j < i; ++j) {
      const double ar = row[2 * j], ai = row[2 * j + 1];
      const double br = x[2 * j], bi = x[2 * j + 1];
      sr -= ar * br - ai * bi;
      si -= ar * bi + ai * br;
    }
    x[2 * i] = sr;
    x[2 * i + 1] = si;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = lu + 2 * ii * n;
    double sr = x[2 * ii], si = x[2 * ii + 1];
    for (std::size_t j = ii + 1; j < n; ++j) {
      const double ar = row[2 * j], ai = row[2 * j + 1];
      const double br = x[2 * j], bi = x[2 * j + 1];
      sr -= ar * br - ai * bi;
      si -= ar * bi + ai * br;
    }
    const double dr = inv_diag[2 * ii], di = inv_diag[2 * ii + 1];
    x[2 * ii] = sr * dr - si * di;
    x[2 * ii + 1] = sr * di + si * dr;
  }
}

// Transposed counterpart (U^T then L^T), reading columns of the row-major
// factors; used by the noise-analysis adjoint solve.
MAOPT_TARGET_CLONES
MAOPT_HOT void trisolve_cplx_transposed(const double* lu, const double* inv_diag, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    double sr = y[2 * i], si = y[2 * i + 1];
    for (std::size_t j = 0; j < i; ++j) {
      const double ar = lu[2 * (j * n + i)], ai = lu[2 * (j * n + i) + 1];
      const double br = y[2 * j], bi = y[2 * j + 1];
      sr -= ar * br - ai * bi;
      si -= ar * bi + ai * br;
    }
    const double dr = inv_diag[2 * i], di = inv_diag[2 * i + 1];
    y[2 * i] = sr * dr - si * di;
    y[2 * i + 1] = sr * di + si * dr;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double sr = y[2 * ii], si = y[2 * ii + 1];
    for (std::size_t j = ii + 1; j < n; ++j) {
      const double ar = lu[2 * (j * n + ii)], ai = lu[2 * (j * n + ii) + 1];
      const double br = y[2 * j], bi = y[2 * j + 1];
      sr -= ar * br - ai * bi;
      si -= ar * bi + ai * br;
    }
    y[2 * ii] = sr;
    y[2 * ii + 1] = si;
  }
}

}  // namespace

template <typename T>
bool lu_factor(LuWorkspace<T>& ws) {
  Matrix<T>& a = ws.a_;
  if (a.rows() != a.cols()) throw std::invalid_argument("LU: matrix must be square");
  const std::size_t n = a.rows();
  ws.factored_ = false;
  ws.perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) ws.perm_[i] = i;
  ws.perm_sign_ = 1;
  ws.inv_diag_.resize(n);

  bool ok;
  if constexpr (std::is_same_v<T, std::complex<double>>) {
    // std::complex<double> is layout-compatible with double[2].
    ok = factor_kernel_cplx(reinterpret_cast<double*>(a.data().data()), n, ws.perm_.data(),
                            reinterpret_cast<double*>(ws.inv_diag_.data()), &ws.perm_sign_);
  } else {
    ok = factor_kernel(a.data().data(), n, ws.perm_.data(), ws.inv_diag_.data(), &ws.perm_sign_);
  }
  ws.factored_ = ok;
  return ok;
}

template <typename T>
void lu_solve_factored(const LuWorkspace<T>& ws, const std::vector<T>& b, std::vector<T>& x) {
  const Matrix<T>& lu = ws.a_;
  const std::size_t n = lu.rows();
  MAOPT_CHECK(ws.factored_, "lu_solve_factored: workspace not factored");
  MAOPT_CHECK(b.size() == n, "lu_solve_factored: dimension mismatch");
  MAOPT_CHECK(&b != &x, "lu_solve_factored: b and x must not alias");
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[ws.perm_[i]];
  if constexpr (std::is_same_v<T, std::complex<double>>) {
    trisolve_cplx(reinterpret_cast<const double*>(lu.data().data()),
                  reinterpret_cast<const double*>(ws.inv_diag_.data()),
                  reinterpret_cast<double*>(x.data()), n);
    return;
  } else {
    // Forward substitution (L has unit diagonal).
    for (std::size_t i = 1; i < n; ++i) {
      T s = x[i];
      for (std::size_t j = 0; j < i; ++j) s -= lu(i, j) * x[j];
      x[i] = s;
    }
    // Back substitution, multiplying by the pivot reciprocals from the factor.
    for (std::size_t ii = n; ii-- > 0;) {
      T s = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) s -= lu(ii, j) * x[j];
      x[ii] = s * ws.inv_diag_[ii];
    }
  }
}

template <typename T>
void lu_solve_factored_transposed(const LuWorkspace<T>& ws, const std::vector<T>& b,
                                  std::vector<T>& x) {
  // A = P^T L U  =>  A^T = U^T L^T P. Solve U^T y = b, L^T z = y, x = P^T z.
  const Matrix<T>& lu = ws.a_;
  const std::size_t n = lu.rows();
  MAOPT_CHECK(ws.factored_, "lu_solve_factored_transposed: workspace not factored");
  MAOPT_CHECK(b.size() == n, "lu_solve_factored_transposed: dimension mismatch");
  std::vector<T>& y = ws.scratch_;
  y.assign(b.begin(), b.end());
  if constexpr (std::is_same_v<T, std::complex<double>>) {
    trisolve_cplx_transposed(reinterpret_cast<const double*>(lu.data().data()),
                             reinterpret_cast<const double*>(ws.inv_diag_.data()),
                             reinterpret_cast<double*>(y.data()), n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      T s = y[i];
      for (std::size_t j = 0; j < i; ++j) s -= lu(j, i) * y[j];
      y[i] = s * ws.inv_diag_[i];
    }
    for (std::size_t ii = n; ii-- > 0;) {
      T s = y[ii];
      for (std::size_t j = ii + 1; j < n; ++j) s -= lu(j, ii) * y[j];
      y[ii] = s;
    }
  }
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[ws.perm_[i]] = y[i];
}

template <typename T>
T LuWorkspace<T>::determinant() const {
  MAOPT_CHECK(factored_, "LuWorkspace::determinant: not factored");
  T det = static_cast<T>(perm_sign_);
  for (std::size_t i = 0; i < size(); ++i) det *= a_(i, i);
  return det;
}

template class LuWorkspace<double>;
template class LuWorkspace<std::complex<double>>;
template bool lu_factor(LuWorkspace<double>&);
template bool lu_factor(LuWorkspace<std::complex<double>>&);
template void lu_solve_factored(const LuWorkspace<double>&, const std::vector<double>&,
                                std::vector<double>&);
template void lu_solve_factored(const LuWorkspace<std::complex<double>>&,
                                const std::vector<std::complex<double>>&,
                                std::vector<std::complex<double>>&);
template void lu_solve_factored_transposed(const LuWorkspace<double>&, const std::vector<double>&,
                                           std::vector<double>&);
template void lu_solve_factored_transposed(const LuWorkspace<std::complex<double>>&,
                                           const std::vector<std::complex<double>>&,
                                           std::vector<std::complex<double>>&);

}  // namespace maopt::linalg
