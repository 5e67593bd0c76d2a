// Dense references for the tests: naive products, the independent oracle
// of the blocked GEMM kernels (linalg/gemm.hpp) — plain loops, no blocking,
// no dispatch, slow and obviously right — and a one-shot LU solve.
#pragma once

#include <stdexcept>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace maopt::linalg::testing {

/// C = A * B.
template <typename T>
Matrix<T> matmul(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: dimension mismatch");
  Matrix<T> c(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop contiguous in both B and C.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const T aik = a(i, k);
      const auto brow = b.row(k);
      auto crow = c.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

/// y = A * x.
template <typename T>
std::vector<T> matvec(const Matrix<T>& a, const std::vector<T>& x) {
  if (a.cols() != x.size()) throw std::invalid_argument("matvec: dimension mismatch");
  std::vector<T> y(a.rows(), T{});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    T s{};
    for (std::size_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

/// y = A^T * x (without materializing the transpose).
template <typename T>
std::vector<T> matvec_transposed(const Matrix<T>& a, const std::vector<T>& x) {
  if (a.rows() != x.size()) throw std::invalid_argument("matvec_transposed: dimension mismatch");
  std::vector<T> y(a.cols(), T{});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    const T xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += row[j] * xi;
  }
  return y;
}

/// A x = b (or A^T x = b) through a fresh LuWorkspace factored for this
/// system alone. Throws on a singular A.
template <typename T>
std::vector<T> dense_solve(const Matrix<T>& a, const std::vector<T>& b, bool transposed = false) {
  LuWorkspace<T> ws;
  ws.matrix() = a;
  if (!lu_factor(ws)) throw std::runtime_error("dense_solve: singular matrix");
  std::vector<T> x;
  if (transposed)
    lu_solve_factored_transposed(ws, b, x);
  else
    lu_solve_factored(ws, b, x);
  return x;
}

}  // namespace maopt::linalg::testing
