#include "util/time_series.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace vihot::util {
namespace {

TimeSeries ramp(double t0, double dt, int n, double v0, double dv) {
  TimeSeries ts;
  for (int i = 0; i < n; ++i) {
    ts.push(t0 + dt * i, v0 + dv * i);
  }
  return ts;
}

TEST(TimeSeriesTest, PushAndAccess) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  ts.push(1.0, 10.0);
  ts.push(2.0, 20.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.front().value, 10.0);
  EXPECT_DOUBLE_EQ(ts.back().t, 2.0);
  EXPECT_DOUBLE_EQ(ts[1].value, 20.0);
}

TEST(TimeSeriesTest, DurationNeedsTwoSamples) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.duration(), 0.0);
  ts.push(1.0, 0.0);
  EXPECT_DOUBLE_EQ(ts.duration(), 0.0);
  ts.push(4.0, 0.0);
  EXPECT_DOUBLE_EQ(ts.duration(), 3.0);
}

TEST(TimeSeriesTest, InterpolateLinear) {
  const TimeSeries ts = ramp(0.0, 1.0, 5, 0.0, 10.0);  // v = 10*t
  EXPECT_DOUBLE_EQ(ts.interpolate(2.0), 20.0);
  EXPECT_DOUBLE_EQ(ts.interpolate(2.5), 25.0);
  EXPECT_DOUBLE_EQ(ts.interpolate(-1.0), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(ts.interpolate(99.0), 40.0);  // clamped
}

TEST(TimeSeriesTest, InterpolateHandlesDuplicateTimestamps) {
  TimeSeries ts;
  ts.push(0.0, 1.0);
  ts.push(1.0, 2.0);
  ts.push(1.0, 5.0);
  ts.push(2.0, 6.0);
  // At the duplicated instant any of the two values is acceptable; the
  // call must not divide by zero.
  const double v = ts.interpolate(1.0);
  EXPECT_GE(v, 2.0);
  EXPECT_LE(v, 5.0);
}

TEST(TimeSeriesTest, SliceInclusive) {
  const TimeSeries ts = ramp(0.0, 1.0, 10, 0.0, 1.0);
  const TimeSeries s = ts.slice(2.0, 5.0);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.front().t, 2.0);
  EXPECT_DOUBLE_EQ(s.back().t, 5.0);
}

TEST(TimeSeriesTest, SliceEmptyRange) {
  const TimeSeries ts = ramp(0.0, 1.0, 5, 0.0, 1.0);
  EXPECT_TRUE(ts.slice(10.0, 20.0).empty());
  EXPECT_TRUE(ts.slice(3.0, 2.0).empty());
}

TEST(TimeSeriesTest, LowerBound) {
  const TimeSeries ts = ramp(0.0, 1.0, 5, 0.0, 1.0);
  EXPECT_EQ(ts.lower_bound(-1.0), 0u);
  EXPECT_EQ(ts.lower_bound(2.0), 2u);
  EXPECT_EQ(ts.lower_bound(2.5), 3u);
  EXPECT_EQ(ts.lower_bound(10.0), 5u);
}

TEST(TimeSeriesTest, MinMaxInRange) {
  // v = 3 - t for t in 0..6, then rising again: min sits mid-series.
  TimeSeries ts;
  for (int i = 0; i <= 6; ++i) ts.push(i, std::abs(3.0 - i));
  const auto mm = ts.minmax_in(1.0, 5.0);
  ASSERT_TRUE(mm.has_value());
  EXPECT_DOUBLE_EQ(mm->min, 0.0);  // at t = 3
  EXPECT_DOUBLE_EQ(mm->max, 2.0);  // at t = 1 and t = 5
  EXPECT_DOUBLE_EQ(mm->spread(), 2.0);
}

TEST(TimeSeriesTest, MinMaxInBoundsInclusive) {
  const TimeSeries ts = ramp(0.0, 1.0, 5, 0.0, 10.0);  // v = 10*t
  const auto mm = ts.minmax_in(1.0, 3.0);
  ASSERT_TRUE(mm.has_value());
  EXPECT_DOUBLE_EQ(mm->min, 10.0);
  EXPECT_DOUBLE_EQ(mm->max, 30.0);
}

TEST(TimeSeriesTest, MinMaxInSingleSample) {
  const TimeSeries ts = ramp(0.0, 1.0, 5, 0.0, 10.0);
  const auto mm = ts.minmax_in(1.9, 2.1);
  ASSERT_TRUE(mm.has_value());
  EXPECT_DOUBLE_EQ(mm->min, 20.0);
  EXPECT_DOUBLE_EQ(mm->max, 20.0);
  EXPECT_DOUBLE_EQ(mm->spread(), 0.0);
}

TEST(TimeSeriesTest, MinMaxInEmptyRange) {
  const TimeSeries ts = ramp(0.0, 1.0, 5, 0.0, 1.0);
  EXPECT_FALSE(ts.minmax_in(10.0, 20.0).has_value());
  EXPECT_FALSE(ts.minmax_in(3.0, 2.0).has_value());
  EXPECT_FALSE(ts.minmax_in(1.2, 1.8).has_value());  // between samples
  EXPECT_FALSE(TimeSeries{}.minmax_in(0.0, 1.0).has_value());
}

TEST(TimeSeriesTest, MinMaxInMatchesSliceScan) {
  TimeSeries ts;
  double v = 0.25;
  for (int i = 0; i < 200; ++i) {
    v = 3.9 * v * (1.0 - v);  // deterministic chaotic values
    ts.push(0.01 * i, v);
  }
  const TimeSeries ref = ts.slice(0.5, 1.5);
  const auto mm = ts.minmax_in(0.5, 1.5);
  ASSERT_TRUE(mm.has_value());
  double lo = ref[0].value;
  double hi = ref[0].value;
  for (const auto& s : ref.samples()) {
    lo = std::min(lo, s.value);
    hi = std::max(hi, s.value);
  }
  EXPECT_DOUBLE_EQ(mm->min, lo);
  EXPECT_DOUBLE_EQ(mm->max, hi);
}

TEST(TimeSeriesTest, ColumnsSplit) {
  const TimeSeries ts = ramp(1.0, 0.5, 3, 7.0, 1.0);
  const auto t = ts.times();
  const auto v = ts.values();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t[1], 1.5);
  EXPECT_DOUBLE_EQ(v[2], 9.0);
}

TEST(UniformSeriesTest, TimeAtAndEnd) {
  UniformSeries u;
  u.t0 = 1.0;
  u.dt = 0.5;
  u.values = {0.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(u.time_at(2), 2.0);
  EXPECT_DOUBLE_EQ(u.end_time(), 2.0);
  EXPECT_EQ(u.size(), 3u);
}

TEST(UniformSeriesTest, InterpolateMatchesLinear) {
  UniformSeries u;
  u.t0 = 0.0;
  u.dt = 2.0;
  u.values = {0.0, 10.0, 20.0};
  EXPECT_DOUBLE_EQ(u.interpolate(1.0), 5.0);
  EXPECT_DOUBLE_EQ(u.interpolate(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(u.interpolate(9.0), 20.0);
}

TEST(UniformSeriesTest, SingleSample) {
  UniformSeries u;
  u.t0 = 3.0;
  u.dt = 1.0;
  u.values = {7.0};
  EXPECT_DOUBLE_EQ(u.interpolate(100.0), 7.0);
  EXPECT_DOUBLE_EQ(u.end_time(), 3.0);
}

}  // namespace
}  // namespace vihot::util
