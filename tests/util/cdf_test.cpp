#include "util/cdf.h"

#include <gtest/gtest.h>

#include <vector>

namespace vihot::util {
namespace {

TEST(CdfTest, EmptyCdf) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
}

TEST(CdfTest, AtStepFunction) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EmpiricalCdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(CdfTest, QuantileInverse) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0, 50.0};
  EmpiricalCdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.2), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.21), 20.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 30.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 10.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 50.0);
}

TEST(CdfTest, UnsortedInputIsSorted) {
  const std::vector<double> xs = {5.0, 1.0, 3.0};
  EmpiricalCdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.sorted().front(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.sorted().back(), 5.0);
}

TEST(CdfTest, CurveSpansRequestedRange) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EmpiricalCdf cdf(xs);
  const auto curve = cdf.curve(6.0, 13);
  ASSERT_EQ(curve.size(), 13u);
  EXPECT_DOUBLE_EQ(curve.front().first, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().first, 6.0);
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
  // CDF values along the curve are non-decreasing.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
}

TEST(CdfTest, CurveZeroPoints) {
  EmpiricalCdf cdf(std::vector<double>{1.0});
  EXPECT_TRUE(cdf.curve(5.0, 0).empty());
}

class CdfRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CdfRoundTrip, QuantileAtIsConsistent) {
  std::vector<double> xs;
  unsigned state = static_cast<unsigned>(GetParam()) * 7919u + 3u;
  for (int i = 0; i < 50; ++i) {
    state = state * 1664525u + 1013904223u;
    xs.push_back(static_cast<double>(state % 10000u) / 100.0);
  }
  EmpiricalCdf cdf(xs);
  for (const double x : xs) {
    // The smallest sample reaching the same cumulative probability cannot
    // exceed the sample itself.
    EXPECT_LE(cdf.quantile(cdf.at(x)), x + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfRoundTrip, ::testing::Range(1, 7));

}  // namespace
}  // namespace vihot::util
