// gemm_nt: C += A B^T, the input-gradient GEMM (dX += dY W^T) of every
// backward pass and of the critic's input-gradient chain in actor training.
//
// Rounding contract (pinned bit for bit by tests/linalg/test_gemm_nt.cpp):
// every output element is computed as
//   s = 0
//   s = s + a[p] * b[p]      unfused, in order, for p < 2 * floor(k / 2)
//   s = fma(a[k-1], b[k-1], s)   only when k is odd
//   c = c + s
// This is exactly how the previous in-order dot-product kernel rounded in
// the Release (-O3, AVX2/FMA clone) build, so trajectories stay
// bit-identical. The rule holds on every target and compiler because this
// translation unit is compiled with -ffp-contract=off (src/CMakeLists.txt):
// the pair loop can never be contracted into FMAs, and the odd tail is an
// explicit std::fma rather than an optimizer decision.
//
// Speed comes from vectorizing across output columns instead of along the
// dot product: B is packed into a k x n transpose, and each SIMD lane of a
// 4-row x 8-column register block keeps its own in-order sum over p — the
// same operations in the same order as the scalar rule, just side by side.
#include <cmath>
#include <cstddef>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/gemm.hpp"

namespace maopt::linalg {

namespace {

// Four doubles: one AVX2 register in the x86-64-v3 clone, two SSE2
// registers in the baseline. Element-wise + and * round per lane exactly
// like the scalar operators.
using V4 = double __attribute__((vector_size(32)));
constexpr std::size_t kLanes = 4;

// R rows x NV vectors of C accumulated over the packed (k x n) transpose
// `bt`; `a` points at row 0 of the block in A, `bt` and `c` at its first
// column.
template <std::size_t R, std::size_t NV>
[[gnu::always_inline]] inline void nt_block(std::size_t n, std::size_t k, const double* a,
                                            const double* bt, double* c) {
  V4 s[R][NV];
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < NV; ++v) s[r][v] = V4{0.0, 0.0, 0.0, 0.0};
  const std::size_t pairs = k - k % 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    // One memcpy per vector: copying the whole array at once makes GCC
    // keep every accumulator in memory instead of in registers.
    V4 b[NV];
    for (std::size_t v = 0; v < NV; ++v)
      __builtin_memcpy(&b[v], bt + p * n + v * kLanes, sizeof b[v]);
    for (std::size_t r = 0; r < R; ++r) {
      const double x = a[r * k + p];
      const V4 ar = {x, x, x, x};
      for (std::size_t v = 0; v < NV; ++v) s[r][v] = s[r][v] + ar * b[v];
    }
  }
  if (k % 2 != 0) {
    const double* bp = bt + pairs * n;
    for (std::size_t r = 0; r < R; ++r) {
      const double x = a[r * k + pairs];
      for (std::size_t v = 0; v < NV; ++v) {
        for (std::size_t l = 0; l < kLanes; ++l)
          s[r][v][l] = std::fma(x, bp[v * kLanes + l], s[r][v][l]);
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < NV; ++v) {
      double* cp = c + r * n + v * kLanes;
      V4 cv;
      __builtin_memcpy(&cv, cp, sizeof cv);
      cv = cv + s[r][v];
      __builtin_memcpy(cp, &cv, sizeof cv);
    }
}

// Scalar form of nt_block for the last n % 4 columns.
template <std::size_t R>
[[gnu::always_inline]] inline void nt_column(std::size_t n, std::size_t k, const double* a,
                                             const double* bt, double* c) {
  double s[R] = {};
  const std::size_t pairs = k - k % 2;
  for (std::size_t p = 0; p < pairs; ++p)
    for (std::size_t r = 0; r < R; ++r) s[r] = s[r] + a[r * k + p] * bt[p * n];
  if (k % 2 != 0)
    for (std::size_t r = 0; r < R; ++r) s[r] = std::fma(a[r * k + pairs], bt[pairs * n], s[r]);
  for (std::size_t r = 0; r < R; ++r) c[r * n] += s[r];
}

}  // namespace

MAOPT_TARGET_CLONES
MAOPT_HOT void gemm_nt_packed(std::size_t m, std::size_t n, std::size_t k, const double* a,
                              const double* bt, double* c) {
  MAOPT_DCHECK(m == 0 || n == 0 || k == 0 || (a != nullptr && bt != nullptr && c != nullptr),
               "gemm_nt: null operand with nonzero extents");
  // Column panels outermost: an 8-wide panel of the transpose (k x 64 bytes)
  // stays in L1 while every row block of A streams past it.
  std::size_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) nt_block<4, 2>(n, k, a + i * k, bt + j, c + i * n + j);
    for (; i < m; ++i) nt_block<1, 2>(n, k, a + i * k, bt + j, c + i * n + j);
  }
  for (; j + kLanes <= n; j += kLanes) {
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) nt_block<4, 1>(n, k, a + i * k, bt + j, c + i * n + j);
    for (; i < m; ++i) nt_block<1, 1>(n, k, a + i * k, bt + j, c + i * n + j);
  }
  for (; j < n; ++j) {
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) nt_column<4>(n, k, a + i * k, bt + j, c + i * n + j);
    for (; i < m; ++i) nt_column<1>(n, k, a + i * k, bt + j, c + i * n + j);
  }
}

MAOPT_HOT void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
                       const double* b, double* c, double* b_packed) {
  MAOPT_DCHECK(m == 0 || n == 0 || k == 0 || (b != nullptr && b_packed != nullptr),
               "gemm_nt: null operand with nonzero extents");
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = 0; p < k; ++p) b_packed[p * n + j] = b[j * k + p];
  gemm_nt_packed(m, n, k, a, b_packed, c);
}

}  // namespace maopt::linalg
