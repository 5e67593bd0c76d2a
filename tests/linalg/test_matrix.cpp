#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../support/naive_linalg.hpp"

namespace maopt::linalg {
namespace {

// The naive products are the oracle of the blocked kernels; these pin them.
using testing::matmul;
using testing::matvec;
using testing::matvec_transposed;

TEST(Matrix, ConstructAndIndex) {
  Mat m(2, 3, 0.0);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(Matrix, CheckedAtMatchesOperatorAndRejectsOutOfRange) {
  Mat m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(m.at(1, 2), 6.0);
  m.at(0, 1) = 9.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
  const Mat& cm = m;
  EXPECT_DOUBLE_EQ(cm.at(0, 1), 9.0);
  EXPECT_THROW(m.at(2, 0), std::invalid_argument);
  EXPECT_THROW(m.at(0, 3), std::invalid_argument);
  EXPECT_THROW(cm.at(2, 3), std::invalid_argument);
}

TEST(Matrix, GenerationBumpsOnReshapeNotOnReadOrWrite) {
  Mat m(2, 2, 1.0);
  const auto g0 = m.generation();
  m(0, 0) = 5.0;          // element writes do not invalidate borrows
  (void)m.row(1);
  EXPECT_EQ(m.generation(), g0);
  m.ensure_shape(2, 2);   // reshape (even same-shape) marks contents unspecified
  EXPECT_GT(m.generation(), g0);
  const auto g1 = m.generation();
  m.resize(3, 3);
  EXPECT_GT(m.generation(), g1);
}

TEST(Matrix, InitializerListSizeMismatchThrows) {
  EXPECT_THROW(Mat(2, 2, {1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Matrix, InitializerListLayoutIsRowMajor) {
  Mat m(2, 2, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, IdentityMatmulIsNoOp) {
  Mat a(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Mat i = Mat::identity(3);
  const Mat p = matmul(a, i);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(p(r, c), a(r, c));
}

TEST(Matrix, MatmulKnownProduct) {
  Mat a(2, 3, {1, 2, 3, 4, 5, 6});
  Mat b(3, 2, {7, 8, 9, 10, 11, 12});
  const Mat c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MatmulDimensionMismatchThrows) {
  Mat a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Matrix, MatvecKnownResult) {
  Mat a(2, 2, {1, 2, 3, 4});
  const std::vector<double> x{5, 6};
  const auto y = matvec(a, x);
  EXPECT_DOUBLE_EQ(y[0], 17.0);
  EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(Matrix, MatvecTransposedMatchesExplicitTranspose) {
  Mat a(2, 3, {1, 2, 3, 4, 5, 6});
  const std::vector<double> x{7, 8};
  const auto y1 = matvec_transposed(a, x);
  const auto y2 = matvec(a.transposed(), x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(Matrix, TransposedShape) {
  Mat a(2, 3);
  const Mat t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Matrix, ComplexMatmul) {
  using C = std::complex<double>;
  CMat a(1, 1, {C(0, 1)});
  CMat b(1, 1, {C(0, 1)});
  const CMat c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0).real(), -1.0);
  EXPECT_DOUBLE_EQ(c(0, 0).imag(), 0.0);
}

TEST(Matrix, RowSpanWritesThrough) {
  Mat m(2, 2, 0.0);
  auto r = m.row(1);
  r[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
}

TEST(VectorOps, DotAndNorms) {
  const std::vector<double> a{3.0, 4.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 4.0);
}

TEST(VectorOps, DotMismatchThrows) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(dot(a, b), std::invalid_argument);
}

TEST(VectorOps, Axpy) {
  std::vector<double> a{1.0, 1.0};
  const std::vector<double> b{2.0, 3.0};
  axpy(2.0, b, a);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
  EXPECT_DOUBLE_EQ(a[1], 7.0);
}

TEST(Matrix, FillAndResize) {
  Mat m(2, 2, 1.0);
  m.fill(3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 3.0);
  m.resize(1, 4, -1.0);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_DOUBLE_EQ(m(0, 3), -1.0);
}

}  // namespace
}  // namespace maopt::linalg
