#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace maopt {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng(11);
  double s = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) s += rng.uniform();
  EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(5);
  const int n = 200000;
  double mean = 0.0, var = 0.0;
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal();
  for (const double x : xs) mean += x;
  mean /= n;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= n - 1;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(5);
  const int n = 100000;
  double mean = 0.0;
  for (int i = 0; i < n; ++i) mean += rng.normal(3.0, 2.0);
  EXPECT_NEAR(mean / n, 3.0, 0.05);
}

TEST(Rng, DeriveSeedIsStreamDependent) {
  const auto a = derive_seed(100, 0);
  const auto b = derive_seed(100, 1);
  const auto c = derive_seed(101, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, derive_seed(100, 0));
}

}  // namespace
}  // namespace maopt
