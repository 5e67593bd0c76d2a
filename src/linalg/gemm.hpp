// Cache-blocked dense GEMM kernels for the neural-network training hot path.
//
// A naive matmul (the tests' oracle, tests/support/naive_linalg.hpp) streams
// all of B through cache for every row of A; at the sizes the critic/actor
// MLPs use (batch x 100 x 100 and larger near-sampling batches) that is
// memory-bound. The kernels here tile the i-k-j loop nest so a panel of B
// rows stays resident while four A scalars at a time are broadcast against
// it, and every kernel *accumulates* into a caller-owned C so the
// surrounding code can reuse buffers instead of constructing fresh matrices
// per call.
//
// Three transpose variants cover the whole backprop triangle:
//   gemm_nn: C += A B        (forward:  Y += X W)
//   gemm_tn: C += A^T B      (weights:  dW += X^T dY)
//   gemm_nt: C += A B^T      (inputs:   dX += dY W^T)
// gemm_nt packs B^T into caller-owned scratch so it can vectorize across
// output columns; its per-element rounding is a pinned contract (see
// gemm_nt.cpp and DESIGN.md "Training kernels").
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace maopt::linalg {

/// C (m x n) += A (m x k) * B (k x n); all row-major, C pre-sized.
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c);

/// C (m x n) += A^T * B where A^T is the first m columns of A, stored
/// (k x lda) row-major (lda >= m; lda == m for a contiguous A). A column
/// block of a wider A (a row block of dW = X^T dY) needs no copy: pass a
/// pointer to its first column and the full row stride.
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
             const double* b, double* c);

/// C (m x n) += A * B^T where B is stored (n x k) row-major. `b_packed` is
/// caller-owned scratch of k * n doubles; it receives B^T (k x n). Each
/// element is the in-order sum s = 0; s = s + a[p]*b[p] (unfused) over the
/// first 2*floor(k/2) terms, s = fma(a, b, s) for an odd last term, then
/// c += s — identical on every target (gemm_nt.cpp).
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a, const double* b,
             double* c, double* b_packed);

/// gemm_nt without the packing pass: `bt` already holds B^T (k x n), as
/// gemm_nt's `b_packed` would. Same per-element rounding as gemm_nt. Lets a
/// caller pack once and run many row blocks of A against the transpose.
void gemm_nt_packed(std::size_t m, std::size_t n, std::size_t k, const double* a,
                    const double* bt, double* c);

}  // namespace maopt::linalg
