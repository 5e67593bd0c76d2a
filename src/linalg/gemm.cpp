#include "linalg/gemm.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "linalg/dispatch.hpp"

namespace maopt::linalg {

namespace {

// Tile sizes: a kRowsTile x kDepthTile panel of A (32 KB) plus a
// kDepthTile x kColsTile panel of B (128 KB) fit in L2, while the
// kColsTile-wide C/B row segments the inner loop touches stay in L1.
constexpr std::size_t kRowsTile = 64;
constexpr std::size_t kDepthTile = 64;
constexpr std::size_t kColsTile = 256;

}  // namespace

// Dispatch rationale lives in linalg/dispatch.hpp (shared with lu.cpp and
// the AC sweep combine kernel).
#define MAOPT_GEMM_CLONES MAOPT_TARGET_CLONES

namespace {
// Shared precondition of the three raw kernels: when any work is implied,
// all panels must be real memory (a null here was silent UB before).
inline void dcheck_gemm_args(std::size_t m, std::size_t n, std::size_t k, const double* a,
                             const double* b, const double* c) {
  MAOPT_DCHECK(m == 0 || n == 0 || k == 0 || (a != nullptr && b != nullptr && c != nullptr),
               "gemm: null operand with nonzero extents");
  (void)m;
  (void)n;
  (void)k;
  (void)a;
  (void)b;
  (void)c;
}
}  // namespace

MAOPT_GEMM_CLONES
MAOPT_HOT void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c) {
  dcheck_gemm_args(m, n, k, a, b, c);
  for (std::size_t jj = 0; jj < n; jj += kColsTile) {
    const std::size_t jend = std::min(n, jj + kColsTile);
    for (std::size_t kk = 0; kk < k; kk += kDepthTile) {
      const std::size_t kend = std::min(k, kk + kDepthTile);
      for (std::size_t ii = 0; ii < m; ii += kRowsTile) {
        const std::size_t iend = std::min(m, ii + kRowsTile);
        std::size_t i = ii;
        // 2x4 register micro-kernel: two C rows retire four rank-1 updates
        // per pass, so each quartet of B-row loads feeds sixteen flops.
        for (; i + 2 <= iend; i += 2) {
          const double* arow0 = a + i * k;
          const double* arow1 = arow0 + k;
          double* crow0 = c + i * n;
          double* crow1 = crow0 + n;
          std::size_t p = kk;
          for (; p + 4 <= kend; p += 4) {
            const double a00 = arow0[p], a01 = arow0[p + 1], a02 = arow0[p + 2],
                         a03 = arow0[p + 3];
            const double a10 = arow1[p], a11 = arow1[p + 1], a12 = arow1[p + 2],
                         a13 = arow1[p + 3];
            const double* b0 = b + p * n;
            const double* b1 = b0 + n;
            const double* b2 = b1 + n;
            const double* b3 = b2 + n;
            for (std::size_t j = jj; j < jend; ++j) {
              const double bv0 = b0[j], bv1 = b1[j], bv2 = b2[j], bv3 = b3[j];
              crow0[j] += a00 * bv0 + a01 * bv1 + a02 * bv2 + a03 * bv3;
              crow1[j] += a10 * bv0 + a11 * bv1 + a12 * bv2 + a13 * bv3;
            }
          }
          for (; p < kend; ++p) {
            const double a0 = arow0[p], a1 = arow1[p];
            const double* bp = b + p * n;
            for (std::size_t j = jj; j < jend; ++j) {
              crow0[j] += a0 * bp[j];
              crow1[j] += a1 * bp[j];
            }
          }
        }
        for (; i < iend; ++i) {
          const double* arow = a + i * k;
          double* crow = c + i * n;
          std::size_t p = kk;
          for (; p + 4 <= kend; p += 4) {
            const double a0 = arow[p], a1 = arow[p + 1], a2 = arow[p + 2], a3 = arow[p + 3];
            const double* b0 = b + p * n;
            const double* b1 = b0 + n;
            const double* b2 = b1 + n;
            const double* b3 = b2 + n;
            for (std::size_t j = jj; j < jend; ++j)
              crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
          }
          for (; p < kend; ++p) {
            const double ap = arow[p];
            const double* bp = b + p * n;
            for (std::size_t j = jj; j < jend; ++j) crow[j] += ap * bp[j];
          }
        }
      }
    }
  }
}

MAOPT_GEMM_CLONES
MAOPT_HOT void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
                       std::size_t lda, const double* b, double* c) {
  dcheck_gemm_args(m, n, k, a, b, c);
  MAOPT_DCHECK(lda >= m, "gemm_tn: lda < m");
  // A is (k x lda): column i of A^T is the stride-lda column i of A.
  for (std::size_t kk = 0; kk < k; kk += kDepthTile) {
    const std::size_t kend = std::min(k, kk + kDepthTile);
    for (std::size_t ii = 0; ii < m; ii += kRowsTile) {
      const std::size_t iend = std::min(m, ii + kRowsTile);
      std::size_t i = ii;
      // Same 2x4 micro-kernel as gemm_nn; the A columns i and i+1 sit next
      // to each other in memory, so the strided loads pair up naturally.
      for (; i + 2 <= iend; i += 2) {
        double* crow0 = c + i * n;
        double* crow1 = crow0 + n;
        std::size_t p = kk;
        for (; p + 4 <= kend; p += 4) {
          const double a00 = a[p * lda + i], a10 = a[p * lda + i + 1];
          const double a01 = a[(p + 1) * lda + i], a11 = a[(p + 1) * lda + i + 1];
          const double a02 = a[(p + 2) * lda + i], a12 = a[(p + 2) * lda + i + 1];
          const double a03 = a[(p + 3) * lda + i], a13 = a[(p + 3) * lda + i + 1];
          const double* b0 = b + p * n;
          const double* b1 = b0 + n;
          const double* b2 = b1 + n;
          const double* b3 = b2 + n;
          for (std::size_t j = 0; j < n; ++j) {
            const double bv0 = b0[j], bv1 = b1[j], bv2 = b2[j], bv3 = b3[j];
            crow0[j] += a00 * bv0 + a01 * bv1 + a02 * bv2 + a03 * bv3;
            crow1[j] += a10 * bv0 + a11 * bv1 + a12 * bv2 + a13 * bv3;
          }
        }
        for (; p < kend; ++p) {
          const double a0 = a[p * lda + i], a1 = a[p * lda + i + 1];
          const double* bp = b + p * n;
          for (std::size_t j = 0; j < n; ++j) {
            crow0[j] += a0 * bp[j];
            crow1[j] += a1 * bp[j];
          }
        }
      }
      for (; i < iend; ++i) {
        double* crow = c + i * n;
        std::size_t p = kk;
        for (; p + 4 <= kend; p += 4) {
          const double a0 = a[p * lda + i];
          const double a1 = a[(p + 1) * lda + i];
          const double a2 = a[(p + 2) * lda + i];
          const double a3 = a[(p + 3) * lda + i];
          const double* b0 = b + p * n;
          const double* b1 = b0 + n;
          const double* b2 = b1 + n;
          const double* b3 = b2 + n;
          for (std::size_t j = 0; j < n; ++j)
            crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
        for (; p < kend; ++p) {
          const double ap = a[p * lda + i];
          const double* bp = b + p * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += ap * bp[j];
        }
      }
    }
  }
}

void matmul_blocked(const Mat& a, const Mat& b, Mat& c) {
  MAOPT_CHECK(a.cols() == b.rows(), "matmul_blocked: dimension mismatch");
  MAOPT_CHECK(&c != &a && &c != &b, "matmul_blocked: c must not alias an operand");
  c.ensure_shape(a.rows(), b.cols());
  c.fill(0.0);
  gemm_nn(a.rows(), b.cols(), a.cols(), a.data().data(), b.data().data(), c.data().data());
}

Mat matmul_blocked(const Mat& a, const Mat& b) {
  Mat c;
  matmul_blocked(a, b, c);
  return c;
}

}  // namespace maopt::linalg
