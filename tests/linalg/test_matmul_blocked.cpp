#include "linalg/gemm.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace maopt::linalg {
namespace {

Mat random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Mat m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

void expect_close(const Mat& a, const Mat& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) EXPECT_NEAR(a(r, c), b(r, c), tol) << r << "," << c;
}

// Shapes straddling the kernel tile sizes (64/64/256), deliberately including
// non-multiples, degenerate dims, and the skinny shapes the MLPs use.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 3},    {3, 1, 5},    {5, 5, 5},     {32, 100, 100},
    {63, 65, 7}, {64, 64, 64}, {65, 63, 66}, {100, 100, 9}, {70, 130, 300},
};

TEST(MatmulBlocked, MatchesNaiveOnRectangularShapes) {
  Rng rng(1);
  for (const auto& s : kShapes) {
    const Mat a = random_matrix(s.m, s.k, rng);
    const Mat b = random_matrix(s.k, s.n, rng);
    const Mat expected = matmul(a, b);
    const Mat actual = matmul_blocked(a, b);
    expect_close(actual, expected, 1e-12 * static_cast<double>(s.k));
  }
}

TEST(MatmulBlocked, AccumulatesIntoReusedOutput) {
  Rng rng(2);
  const Mat a = random_matrix(65, 63, rng);
  const Mat b = random_matrix(63, 66, rng);
  Mat c(3, 3, 777.0);  // wrong shape and stale contents: must be overwritten
  matmul_blocked(a, b, c);
  expect_close(c, matmul(a, b), 1e-10);
  matmul_blocked(a, b, c);  // second call reuses capacity, same result
  expect_close(c, matmul(a, b), 1e-10);
}

TEST(MatmulBlocked, DimensionMismatchThrows) {
  const Mat a(3, 4), b(5, 2);
  EXPECT_THROW(matmul_blocked(a, b), std::invalid_argument);
}

TEST(GemmVariants, TransposedKernelsMatchExplicitTranspose) {
  Rng rng(6);
  const std::size_t m = 37, n = 53, k = 29;
  // gemm_tn: C += A^T B with A stored (k x m).
  {
    const Mat a = random_matrix(k, m, rng);
    const Mat b = random_matrix(k, n, rng);
    Mat c(m, n, 0.0);
    gemm_tn(m, n, k, a.data().data(), m, b.data().data(), c.data().data());
    expect_close(c, matmul(a.transposed(), b), 1e-11);
  }
  // gemm_nt: C += A B^T with B stored (n x k).
  {
    const Mat a = random_matrix(m, k, rng);
    const Mat b = random_matrix(n, k, rng);
    Mat c(m, n, 0.0);
    Mat packed(k, n);
    gemm_nt(m, n, k, a.data().data(), b.data().data(), c.data().data(), packed.data().data());
    expect_close(c, matmul(a, b.transposed()), 1e-11);
  }
}

TEST(GemmVariants, StridedGemmTnMatchesContiguousBitwise) {
  // A column block of a wider A (lda > m) must give the same bits as the
  // same columns copied into a contiguous (k x m) matrix, and even-aligned
  // blocks must tile the full product exactly (the critic's dW row blocks).
  Rng rng(7);
  const std::size_t lda = 41, n = 23;
  for (const std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{64}, std::size_t{67}}) {
    const Mat a = random_matrix(k, lda, rng);
    const Mat b = random_matrix(k, n, rng);
    const Mat c0 = random_matrix(lda, n, rng);
    for (const std::size_t first : {std::size_t{0}, std::size_t{3}, std::size_t{10}}) {
      for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{7}, lda - first}) {
        Mat block(k, m);
        for (std::size_t p = 0; p < k; ++p)
          for (std::size_t i = 0; i < m; ++i) block(p, i) = a(p, first + i);
        Mat contiguous(m, n), strided(m, n);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j) contiguous(i, j) = strided(i, j) = c0(first + i, j);
        gemm_tn(m, n, k, block.data().data(), m, b.data().data(), contiguous.data().data());
        gemm_tn(m, n, k, a.data().data() + first, lda, b.data().data(), strided.data().data());
        for (std::size_t e = 0; e < contiguous.data().size(); ++e)
          ASSERT_EQ(contiguous.data()[e], strided.data()[e])
              << "k=" << k << " first=" << first << " m=" << m << " entry " << e;
      }
    }
    Mat full = c0, tiled = c0;
    gemm_tn(lda, n, k, a.data().data(), lda, b.data().data(), full.data().data());
    for (std::size_t first = 0; first < lda; first += 6) {
      const std::size_t m = std::min<std::size_t>(6, lda - first);
      gemm_tn(m, n, k, a.data().data() + first, lda, b.data().data(),
              tiled.data().data() + first * n);
    }
    for (std::size_t e = 0; e < full.data().size(); ++e)
      ASSERT_EQ(full.data()[e], tiled.data()[e]) << "k=" << k << " entry " << e;
  }
}

TEST(GemmVariants, KernelsAccumulateOntoExistingC) {
  Rng rng(7);
  const std::size_t m = 10, n = 12, k = 8;
  const Mat a = random_matrix(m, k, rng);
  const Mat b = random_matrix(k, n, rng);
  Mat c(m, n, 1.0);
  gemm_nn(m, n, k, a.data().data(), b.data().data(), c.data().data());
  const Mat product = matmul(a, b);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(c(r, j), product(r, j) + 1.0, 1e-12);
}

}  // namespace
}  // namespace maopt::linalg
