#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace vihot::util {
namespace {

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{5.0}), 5.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(StatsTest, StddevKnownValues) {
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{1.0}), 0.0);
  // Sample stddev of {2, 4, 4, 4, 5, 5, 7, 9} is sqrt(32/7).
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 62.5), 35.0);  // halfway 30..40
}

TEST(StatsTest, PercentileClampsOutOfRange) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 150.0), 2.0);
}

TEST(StatsTest, MinMaxRms) {
  const std::vector<double> xs = {-3.0, 4.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -3.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
  EXPECT_DOUBLE_EQ(rms(xs), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(rms({}), 0.0);
}

// Property: percentile is monotone in p.
class PercentileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotone, MonotoneInP) {
  std::vector<double> xs;
  // Deterministic pseudo-random-ish values.
  unsigned state = static_cast<unsigned>(GetParam()) * 2654435761u + 1u;
  for (int i = 0; i < 64; ++i) {
    state = state * 1664525u + 1013904223u;
    xs.push_back(static_cast<double>(state % 1000u) / 10.0);
  }
  double prev = percentile(xs, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = percentile(xs, p);
    EXPECT_GE(cur, prev - 1e-12) << "p=" << p;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone, ::testing::Range(1, 9));

}  // namespace
}  // namespace vihot::util
