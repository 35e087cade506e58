#include "sim/metrics.h"

#include <gtest/gtest.h>

#include "util/angle.h"

namespace vihot::sim {
namespace {

TEST(MetricsTest, AngularErrorInDegrees) {
  EXPECT_NEAR(angular_error_deg(0.0, util::deg_to_rad(10.0)), 10.0, 1e-9);
  EXPECT_NEAR(angular_error_deg(util::deg_to_rad(-5.0),
                                util::deg_to_rad(5.0)),
              10.0, 1e-9);
}

TEST(MetricsTest, AngularErrorWrapsCorrectly) {
  // 175 deg vs -175 deg is 10 deg apart, not 350.
  EXPECT_NEAR(angular_error_deg(util::deg_to_rad(175.0),
                                util::deg_to_rad(-175.0)),
              10.0, 1e-9);
}

TEST(MetricsTest, CollectorStatistics) {
  ErrorCollector c;
  EXPECT_TRUE(c.empty());
  for (double e : {1.0, 2.0, 3.0, 4.0, 100.0}) c.add(e);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_DOUBLE_EQ(c.median_deg(), 3.0);
  EXPECT_DOUBLE_EQ(c.max_deg(), 100.0);
  EXPECT_DOUBLE_EQ(c.mean_deg(), 22.0);
  EXPECT_DOUBLE_EQ(c.percentile_deg(50.0), 3.0);
}

TEST(MetricsTest, MergeCombinesSamples) {
  ErrorCollector a;
  a.add(1.0);
  ErrorCollector b;
  b.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.median_deg(), 3.0);
}

TEST(MetricsTest, CdfMatchesSamples) {
  ErrorCollector c;
  for (int i = 1; i <= 10; ++i) c.add(static_cast<double>(i));
  const util::EmpiricalCdf cdf = c.cdf();
  EXPECT_DOUBLE_EQ(cdf.at(5.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.max(), 10.0);
}

}  // namespace
}  // namespace vihot::sim
