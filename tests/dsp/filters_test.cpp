#include "dsp/filters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace vihot::dsp {
namespace {

TEST(FiltersTest, MovingAveragePreservesConstant) {
  const std::vector<double> xs(20, 3.5);
  const auto out = moving_average(xs, 5);
  for (const double v : out) EXPECT_DOUBLE_EQ(v, 3.5);
}

TEST(FiltersTest, MovingAverageSmoothsNoise) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) {
    xs.push_back((i % 2 == 0) ? 1.0 : -1.0);  // alternating noise
  }
  const auto out = moving_average(xs, 9);
  for (std::size_t i = 10; i + 10 < out.size(); ++i) {
    EXPECT_LT(std::abs(out[i]), 0.2);
  }
}

TEST(FiltersTest, MovingAverageWindowOneIsIdentity) {
  const std::vector<double> xs = {1.0, 5.0, -2.0};
  EXPECT_EQ(moving_average(xs, 1), xs);
}

}  // namespace
}  // namespace vihot::dsp
