#include "nn/normalizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace maopt::nn {
namespace {

TEST(RangeScaler, MapsBoundsToUnitInterval) {
  RangeScaler s({0.0, -10.0}, {2.0, 10.0});
  const Vec lo = s.to_unit(Vec{0.0, -10.0});
  const Vec hi = s.to_unit(Vec{2.0, 10.0});
  EXPECT_DOUBLE_EQ(lo[0], -1.0);
  EXPECT_DOUBLE_EQ(lo[1], -1.0);
  EXPECT_DOUBLE_EQ(hi[0], 1.0);
  EXPECT_DOUBLE_EQ(hi[1], 1.0);
}

TEST(RangeScaler, CenterMapsToZero) {
  RangeScaler s({0.0}, {4.0});
  EXPECT_DOUBLE_EQ(s.to_unit(Vec{2.0})[0], 0.0);
}

TEST(RangeScaler, RoundTrip) {
  RangeScaler s({0.18, 0.22, 0.1}, {2.0, 150.0, 100.0});
  const Vec x{1.0, 42.0, 3.0};
  const Vec back = s.from_unit(s.to_unit(x));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-12);
}

TEST(RangeScaler, DeltaScalingIsOffsetFree) {
  // The critic reads design moves as unit-space differences: a box move of
  // dx maps to dx / half-span wherever it starts.
  RangeScaler s({0.0}, {10.0});
  for (const double x : {0.0, 2.5, 7.0})
    EXPECT_DOUBLE_EQ(s.to_unit(Vec{x + 5.0})[0] - s.to_unit(Vec{x})[0], 1.0);  // 5 / half-span(5)
  EXPECT_DOUBLE_EQ(s.from_unit(Vec{0.5})[0] - s.from_unit(Vec{-0.5})[0], 5.0);
}

TEST(RangeScaler, InvalidBoundsThrow) {
  EXPECT_THROW(RangeScaler({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(RangeScaler({0.0, 1.0}, {1.0}), std::invalid_argument);
}

TEST(ZScore, TransformedColumnsAreStandardized) {
  Mat samples(100, 2);
  Rng rng(1);
  for (std::size_t r = 0; r < 100; ++r) {
    samples(r, 0) = rng.normal(5.0, 2.0);
    samples(r, 1) = rng.normal(-100.0, 30.0);
  }
  ZScoreNormalizer z;
  z.fit(samples);
  Mat t;
  z.transform_into(samples, t);
  for (std::size_t c = 0; c < 2; ++c) {
    double m = 0.0, v = 0.0;
    for (std::size_t r = 0; r < 100; ++r) m += t(r, c);
    m /= 100;
    for (std::size_t r = 0; r < 100; ++r) v += (t(r, c) - m) * (t(r, c) - m);
    v /= 100;
    EXPECT_NEAR(m, 0.0, 1e-10);
    EXPECT_NEAR(v, 1.0, 1e-10);
  }
}

TEST(ZScore, RoundTrip) {
  Mat samples(10, 1);
  for (std::size_t r = 0; r < 10; ++r) samples(r, 0) = static_cast<double>(r);
  ZScoreNormalizer z;
  z.fit(samples);
  const Mat x(1, 1, {3.7});
  Mat t, back;
  z.transform_into(x, t);
  z.inverse_into(t, back);
  EXPECT_NEAR(back(0, 0), 3.7, 1e-12);
}

TEST(ZScore, ConstantColumnSafe) {
  Mat samples(5, 1, 2.0);
  ZScoreNormalizer z;
  z.fit(samples);
  Mat t, back;
  z.transform_into(Mat(1, 1, {2.0}), t);
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  z.inverse_into(t, back);
  EXPECT_DOUBLE_EQ(back(0, 0), 2.0);
}

TEST(ZScore, GradientChainRule) {
  Mat samples(4, 1, {0.0, 2.0, 4.0, 6.0});
  ZScoreNormalizer z;
  z.fit(samples);
  // raw = z*std + mean => d raw / d z = std: the factor the critic applies
  // when it carries a raw-metric gradient back to its normalized outputs.
  Mat lo, hi;
  z.inverse_into(Mat(1, 1, {0.25}), lo);
  z.inverse_into(Mat(1, 1, {1.25}), hi);
  EXPECT_NEAR(hi(0, 0) - lo(0, 0), z.std()[0], 1e-12);
}

TEST(ZScore, FitEmptyThrows) {
  ZScoreNormalizer z;
  Mat empty(0, 3);
  EXPECT_THROW(z.fit(empty), std::invalid_argument);
}

}  // namespace
}  // namespace maopt::nn
