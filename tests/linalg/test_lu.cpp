#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include "../support/naive_linalg.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace maopt::linalg {
namespace {

using testing::dense_solve;

TEST(Lu, Solves2x2System) {
  Mat a(2, 2, {2, 1, 1, 3});
  const std::vector<double> b{5, 10};
  const auto x = dense_solve(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Mat a(2, 2, {0, 1, 1, 0});
  const std::vector<double> b{2, 3};
  const auto x = dense_solve(a, b);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  LuWorkReal ws;
  ws.matrix() = Mat(2, 2, {1, 2, 2, 4});
  EXPECT_FALSE(lu_factor(ws));
  std::vector<double> x;
  EXPECT_THROW(lu_solve_factored(ws, {1.0, 2.0}, x), ContractViolation);
}

TEST(Lu, NonSquareThrows) {
  LuWorkReal ws;
  ws.matrix() = Mat(2, 3);
  EXPECT_THROW(lu_factor(ws), std::invalid_argument);
}

TEST(Lu, DeterminantKnown) {
  LuWorkReal ws;
  ws.matrix() = Mat(2, 2, {3, 8, 4, 6});
  ASSERT_TRUE(lu_factor(ws));
  EXPECT_NEAR(ws.determinant(), -14.0, 1e-10);
}

TEST(Lu, SolveTransposedMatchesExplicit) {
  Rng rng(1);
  const std::size_t n = 6;
  Mat a(n, n);
  for (auto& v : a.data()) v = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);

  const auto x1 = dense_solve(a, b, /*transposed=*/true);
  const auto x2 = dense_solve(a.transposed(), b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(Lu, ComplexSolve) {
  using C = std::complex<double>;
  CMat a(2, 2, {C(1, 1), C(0, 0), C(0, 0), C(0, 2)});
  const std::vector<C> b{C(2, 0), C(4, 0)};
  const auto x = dense_solve(a, b);
  EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
  EXPECT_NEAR(x[1].real(), 0.0, 1e-12);
  EXPECT_NEAR(x[1].imag(), -2.0, 1e-12);
}

TEST(Lu, ComplexSolveTransposed) {
  using C = std::complex<double>;
  Rng rng(2);
  const std::size_t n = 5;
  CMat a(n, n);
  for (auto& v : a.data()) v = C(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (std::size_t i = 0; i < n; ++i) a(i, i) += C(4, 0);
  std::vector<C> b(n);
  for (auto& v : b) v = C(rng.uniform(-1, 1), rng.uniform(-1, 1));

  const auto x1 = dense_solve(a, b, /*transposed=*/true);
  const auto x2 = dense_solve(a.transposed(), b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x1[i].real(), x2[i].real(), 1e-10);
    EXPECT_NEAR(x1[i].imag(), x2[i].imag(), 1e-10);
  }
}

/// Property sweep: A * solve(A, b) == b for random diagonally-dominant A.
class LuRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LuRoundTrip, SolveThenMultiplyRecoversRhs) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  Mat a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (auto& v : a.data()) v = rng.uniform(-1, 1);
  for (int i = 0; i < n; ++i) a(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += n;
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-10, 10);

  const auto x = dense_solve(a, b);
  const auto back = testing::matvec(a, x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(back[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRoundTrip, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

TEST(Lu, SolveDimensionMismatchThrows) {
  LuWorkReal ws;
  ws.matrix() = Mat(2, 2, {1, 0, 0, 1});
  ASSERT_TRUE(lu_factor(ws));
  std::vector<double> x;
  EXPECT_THROW(lu_solve_factored(ws, {1.0, 2.0, 3.0}, x), std::invalid_argument);
}

// --- Workspace (hot-path) API ---

Mat random_dd_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Mat a(n, n);
  for (auto& v : a.data()) v = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n) + 2.0;
  return a;
}

// A "decomposition" here is a fresh workspace factored once. A workspace
// that already held other systems must give the same bits.
template <typename T>
void expect_reused_matches_fresh(const Matrix<T>& a, const std::vector<T>& b,
                                 const Matrix<T>& earlier) {
  LuWorkspace<T> reused;
  reused.matrix() = earlier;
  ASSERT_TRUE(lu_factor(reused));
  reused.matrix() = a;
  ASSERT_TRUE(lu_factor(reused));
  LuWorkspace<T> fresh;
  fresh.matrix() = a;
  ASSERT_TRUE(lu_factor(fresh));

  std::vector<T> x, x_ref, xt, xt_ref;
  lu_solve_factored(reused, b, x);
  lu_solve_factored(fresh, b, x_ref);
  lu_solve_factored_transposed(reused, b, xt);
  lu_solve_factored_transposed(fresh, b, xt_ref);
  EXPECT_EQ(x, x_ref);
  EXPECT_EQ(xt, xt_ref);
  EXPECT_EQ(reused.determinant(), fresh.determinant());
}

TEST(LuWorkspaceTest, FactoredSolveIsBitIdenticalToDecomposition) {
  const std::size_t n = 9;
  Rng rng(8);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-5, 5);
  expect_reused_matches_fresh(random_dd_matrix(n, 7), b, random_dd_matrix(n, 6));
}

TEST(LuWorkspaceTest, ComplexFactoredSolveMatchesDecomposition) {
  using C = std::complex<double>;
  const std::size_t n = 7;
  Rng rng(11);
  CMat a(n, n);
  CMat earlier(n, n);
  for (auto& v : a.data()) v = C(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto& v : earlier.data()) v = C(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) += C(5, 0);
    earlier(i, i) += C(5, 0);
  }
  std::vector<C> b(n);
  for (auto& v : b) v = C(rng.uniform(-1, 1), rng.uniform(-1, 1));
  expect_reused_matches_fresh(a, b, earlier);
}

TEST(LuWorkspaceTest, SteadyStateReuseNeverReallocates) {
  const std::size_t n = 12;
  LuWorkReal ws;
  std::vector<double> b(n, 1.0);
  std::vector<double> x;
  std::vector<double> xt;

  // Warm-up: first factor/solve sizes every buffer.
  ws.matrix() = random_dd_matrix(n, 100);
  ASSERT_TRUE(lu_factor(ws));
  lu_solve_factored(ws, b, x);
  lu_solve_factored_transposed(ws, b, xt);

  const double* a_ptr = ws.matrix().data().data();
  const std::size_t a_cap = ws.matrix().data().capacity();
  const double* x_ptr = x.data();

  // Steady state: re-assemble same-dimension systems in place and re-solve.
  for (int round = 0; round < 16; ++round) {
    Mat& m = ws.matrix();
    Rng rng(200 + static_cast<std::uint64_t>(round));
    for (auto& v : m.data()) v = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < n; ++i) m(i, i) += static_cast<double>(n) + 2.0;
    ASSERT_TRUE(lu_factor(ws));
    lu_solve_factored(ws, b, x);
    lu_solve_factored_transposed(ws, b, xt);

    EXPECT_EQ(ws.matrix().data().data(), a_ptr);
    EXPECT_EQ(ws.matrix().data().capacity(), a_cap);
    EXPECT_EQ(x.data(), x_ptr);
  }
}

TEST(LuWorkspaceTest, SingularFactorReturnsFalseAndLeavesUnfactored) {
  LuWorkReal ws;
  ws.matrix() = Mat(2, 2, {1, 2, 2, 4});
  EXPECT_FALSE(lu_factor(ws));
  EXPECT_FALSE(ws.factored());

  // The workspace stays usable: assemble a regular system and carry on.
  ws.matrix() = Mat(2, 2, {2, 1, 1, 3});
  ASSERT_TRUE(lu_factor(ws));
  EXPECT_TRUE(ws.factored());
  std::vector<double> x;
  lu_solve_factored(ws, {5, 10}, x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuWorkspaceTest, WritingMatrixInvalidatesFactorization) {
  LuWorkReal ws;
  ws.matrix() = Mat(2, 2, {2, 1, 1, 3});
  ASSERT_TRUE(lu_factor(ws));
  EXPECT_TRUE(ws.factored());
  ws.matrix()(0, 0) = 5.0;  // non-const access flips the factored flag
  EXPECT_FALSE(ws.factored());
}

}  // namespace
}  // namespace maopt::linalg
