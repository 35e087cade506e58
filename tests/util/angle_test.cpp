#include "util/angle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace vihot::util {
namespace {

TEST(AngleTest, DegRadRoundTrip) {
  EXPECT_DOUBLE_EQ(deg_to_rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad_to_deg(kPi), 180.0);
  for (double d = -720.0; d <= 720.0; d += 37.5) {
    EXPECT_NEAR(rad_to_deg(deg_to_rad(d)), d, 1e-12);
  }
}

TEST(AngleTest, WrapPiPrincipalInterval) {
  EXPECT_NEAR(wrap_pi(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_pi(kPi + 0.1), -kPi + 0.1, 1e-12);
  EXPECT_NEAR(wrap_pi(-kPi - 0.1), kPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_pi(5.0 * kTwoPi + 1.0), 1.0, 1e-9);
  EXPECT_NEAR(wrap_pi(-7.0 * kTwoPi - 2.0), -2.0, 1e-9);
}

TEST(AngleTest, WrapPiBoundaryIsPlusPi) {
  // (-pi, pi]: exactly +pi stays, exactly -pi maps to +pi.
  EXPECT_NEAR(wrap_pi(kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_pi(-kPi), kPi, 1e-12);
}

TEST(AngleTest, AngularDiffShortestPath) {
  EXPECT_NEAR(angular_diff(0.1, -0.1), 0.2, 1e-12);
  // Crossing the wrap boundary: 175 deg to -175 deg is -10 deg apart.
  EXPECT_NEAR(angular_diff(deg_to_rad(175.0), deg_to_rad(-175.0)),
              deg_to_rad(-10.0), 1e-9);
  EXPECT_NEAR(angular_diff(deg_to_rad(-175.0), deg_to_rad(175.0)),
              deg_to_rad(10.0), 1e-9);
}

TEST(AngleTest, AngularDistSymmetricNonNegative) {
  for (double a = -3.0; a <= 3.0; a += 0.5) {
    for (double b = -3.0; b <= 3.0; b += 0.5) {
      EXPECT_GE(angular_dist(a, b), 0.0);
      EXPECT_NEAR(angular_dist(a, b), angular_dist(b, a), 1e-12);
      EXPECT_LE(angular_dist(a, b), kPi + 1e-12);
    }
  }
}

TEST(AngleTest, CircularMeanHandlesWrap) {
  // Mean of 179 deg and -179 deg is 180 deg, not 0.
  const std::vector<double> xs = {deg_to_rad(179.0), deg_to_rad(-179.0)};
  EXPECT_NEAR(std::abs(circular_mean(xs)), kPi, 1e-6);
}

TEST(AngleTest, CircularMeanOfClusteredAngles) {
  const std::vector<double> xs = {0.9, 1.0, 1.1};
  EXPECT_NEAR(circular_mean(xs), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(circular_mean({}), 0.0);
}

// Property sweep: wrap_pi is idempotent and 2*pi-periodic.
class WrapPiProperty : public ::testing::TestWithParam<double> {};

TEST_P(WrapPiProperty, IdempotentAndPeriodic) {
  const double a = GetParam();
  const double w = wrap_pi(a);
  EXPECT_GT(w, -kPi - 1e-12);
  EXPECT_LE(w, kPi + 1e-12);
  EXPECT_NEAR(wrap_pi(w), w, 1e-12);
  EXPECT_NEAR(wrap_pi(a + kTwoPi), w, 1e-9);
  EXPECT_NEAR(wrap_pi(a - kTwoPi), w, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WrapPiProperty,
                         ::testing::Values(-15.0, -6.3, -3.2, -1.0, -1e-9,
                                           0.0, 0.5, 3.1, 3.2, 6.2, 6.4,
                                           12.6, 100.0));

}  // namespace
}  // namespace vihot::util
