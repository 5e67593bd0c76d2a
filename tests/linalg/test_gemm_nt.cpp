// Pins gemm_nt's per-element rounding bit for bit. Training trajectories
// are bit-identical across kernel rewrites only if every element of
// dX = dY W^T rounds exactly as
//   s = 0;  s = s + a[p]*b[p] (unfused) for p < 2*floor(k/2);
//   s = fma(a[k-1], b[k-1], s) if k is odd;  c = c + s.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "linalg/gemm.hpp"

namespace maopt::linalg {
namespace {

// The volatile store forces the product to round on its own, so no
// compiler setting can fuse it with the following add.
double rounded_product(double x, double y) {
  volatile double p = x * y;
  return p;
}

// Scalar oracle of the rounding contract.
void gemm_nt_oracle(std::size_t m, std::size_t n, std::size_t k, const double* a,
                    const double* b, double* c) {
  const std::size_t pairs = k - k % 2;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double* ai = a + i * k;
      const double* bj = b + j * k;
      double s = 0.0;
      for (std::size_t p = 0; p < pairs; ++p) s = s + rounded_product(ai[p], bj[p]);
      if (k % 2 != 0) s = std::fma(ai[pairs], bj[pairs], s);
      c[i * n + j] = c[i * n + j] + s;
    }
  }
}

std::vector<double> random_values(std::size_t count, Rng& rng) {
  std::vector<double> v(count);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// Runs kernel and oracle on one shape, accumulating onto the same non-zero
// C; returns true when every element matches bit for bit.
bool matches_oracle(std::size_t m, std::size_t n, std::size_t k, Rng& rng) {
  const std::vector<double> a = random_values(m * k, rng);
  const std::vector<double> b = random_values(n * k, rng);
  std::vector<double> c = random_values(m * n, rng);
  std::vector<double> expected = c;
  std::vector<double> packed(n * k);
  gemm_nt(m, n, k, a.data(), b.data(), c.data(), packed.data());
  gemm_nt_oracle(m, n, k, a.data(), b.data(), expected.data());
  return std::memcmp(c.data(), expected.data(), m * n * sizeof(double)) == 0;
}

// Widths around the 4- and 8-column vector blocks and the MLP sizes,
// including odd depths (the fused tail) and even ones (no tail).
// m = 64 and m = 5 run the 4-row register blocks; m < 4 only the row
// remainder.
const std::size_t kRows[] = {1, 2, 3, 5, 64};
const std::size_t kEdgeSizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,   10,  11,  12,  13,  15,  16,
                                  17, 31, 32, 33, 63, 64, 65, 99, 100, 101, 127, 128, 129, 130};

TEST(GemmNtRounding, EveryWidthMatchesScalarOracleBitwise) {
  Rng rng(11);
  for (const std::size_t m : kRows)
    for (std::size_t n = 1; n <= 130; ++n)
      for (const std::size_t k : kEdgeSizes)
        ASSERT_TRUE(matches_oracle(m, n, k, rng)) << "m=" << m << " n=" << n << " k=" << k;
}

TEST(GemmNtRounding, EveryDepthMatchesScalarOracleBitwise) {
  Rng rng(12);
  for (const std::size_t m : kRows)
    for (const std::size_t n : kEdgeSizes)
      for (std::size_t k = 1; k <= 130; ++k)
        ASSERT_TRUE(matches_oracle(m, n, k, rng)) << "m=" << m << " n=" << n << " k=" << k;
}

TEST(GemmNtRounding, MlpShapesMatchScalarOracleBitwise) {
  // (batch, in, out) of the paper nets' Linear layers: dX = dY W^T has
  // m = batch, n = in, k = out.
  Rng rng(13);
  for (const std::size_t m : {1u, 32u, 64u, 65u})
    for (const std::size_t n : {9u, 16u, 32u, 100u})
      for (const std::size_t k : {9u, 16u, 100u})
        ASSERT_TRUE(matches_oracle(m, n, k, rng)) << "m=" << m << " n=" << n << " k=" << k;
}

TEST(GemmNtRounding, PackedScratchHoldsTranspose) {
  Rng rng(14);
  const std::size_t m = 3, n = 5, k = 7;
  const std::vector<double> a = random_values(m * k, rng);
  const std::vector<double> b = random_values(n * k, rng);
  std::vector<double> c(m * n, 0.0), packed(n * k, -1.0);
  gemm_nt(m, n, k, a.data(), b.data(), c.data(), packed.data());
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = 0; p < k; ++p) EXPECT_EQ(packed[p * n + j], b[j * k + p]);
}

}  // namespace
}  // namespace maopt::linalg
