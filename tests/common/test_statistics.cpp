#include "common/statistics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace maopt {
namespace {

TEST(Statistics, MeanOfConstants) {
  const std::vector<double> xs{4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
}

TEST(Statistics, MeanSimple) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Statistics, MeanEmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(mean(xs), std::invalid_argument);
}

TEST(Statistics, MedianOddCount) {
  const std::vector<double> xs{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
}

TEST(Statistics, MedianEvenCountInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Statistics, PercentileEndpoints) {
  const std::vector<double> xs{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 30.0);
}

TEST(Statistics, PercentileInterpolation) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
}

TEST(Statistics, RowwiseMean) {
  const std::vector<std::vector<double>> rows{{1.0, 2.0}, {3.0, 6.0}};
  const auto m = rowwise_mean(rows);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0], 2.0);
  EXPECT_DOUBLE_EQ(m[1], 4.0);
}

TEST(Statistics, RowwiseMeanRaggedThrows) {
  const std::vector<std::vector<double>> rows{{1.0, 2.0}, {3.0}};
  EXPECT_THROW(rowwise_mean(rows), std::invalid_argument);
}

TEST(Statistics, RowwiseMeanEmpty) { EXPECT_TRUE(rowwise_mean({}).empty()); }

}  // namespace
}  // namespace maopt
