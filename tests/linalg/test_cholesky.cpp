#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../support/naive_linalg.hpp"
#include "common/rng.hpp"
#include "linalg/lu.hpp"

namespace maopt::linalg {
namespace {

using testing::matmul;

Mat random_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Mat b(n, n);
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  Mat a = matmul(b, b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;
  return a;
}

TEST(Cholesky, FactorOfIdentityIsIdentity) {
  const Mat i3 = Mat::identity(3);
  const Cholesky chol(i3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(chol.lower()(r, c), r == c ? 1.0 : 0.0, 1e-14);
}

TEST(Cholesky, Known2x2) {
  Mat a(2, 2, {4, 2, 2, 3});
  const Cholesky chol(a);
  EXPECT_NEAR(chol.lower()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(chol.lower()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(chol.lower()(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, NotPositiveDefiniteThrows) {
  Mat a(2, 2, {1, 2, 2, 1});  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky chol(a), std::runtime_error);
}

TEST(Cholesky, NonSquareThrows) {
  Mat a(2, 3);
  EXPECT_THROW(Cholesky chol(a), std::invalid_argument);
}

TEST(Cholesky, SolveMatchesLu) {
  const Mat a = random_spd(8, 3);
  Rng rng(4);
  Vec b(8);
  for (auto& v : b) v = rng.uniform(-5, 5);
  const Cholesky chol(a);
  const auto x1 = chol.solve(b);
  const Vec x2 = testing::dense_solve(a, b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);
}

TEST(Cholesky, LogDeterminantMatchesLu) {
  const Mat a = random_spd(6, 7);
  const Cholesky chol(a);
  LuWorkReal lu;
  lu.matrix() = a;
  ASSERT_TRUE(lu_factor(lu));
  EXPECT_NEAR(chol.log_determinant(), std::log(std::abs(lu.determinant())), 1e-9);
}

class CholeskyRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRoundTrip, LLtReconstructsMatrix) {
  const auto n = static_cast<std::size_t>(GetParam());
  const Mat a = random_spd(n, GetParam());
  const Cholesky chol(a);
  const Mat rec = matmul(chol.lower(), chol.lower().transposed());
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) EXPECT_NEAR(rec(r, c), a(r, c), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyRoundTrip, ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(Cholesky, SolveLowerForwardSubstitution) {
  Mat a(2, 2, {4, 0, 2, 3});  // treat as SPD: use A = L L^T with L known
  Mat spd = matmul(a, a.transposed());
  const Cholesky chol(spd);
  Vec b{8.0, 10.0};
  const auto y = chol.solve_lower(b);
  // L y = b must hold.
  const auto& l = chol.lower();
  EXPECT_NEAR(l(0, 0) * y[0], b[0], 1e-10);
  EXPECT_NEAR(l(1, 0) * y[0] + l(1, 1) * y[1], b[1], 1e-10);
}

}  // namespace
}  // namespace maopt::linalg
