#include "imu/turn_detector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "obs/metrics.h"
#include "util/rng.h"

namespace vihot::imu {
namespace {

ImuSample sample(double t, double yaw) {
  ImuSample s;
  s.t = t;
  s.gyro_yaw_rad_s = yaw;
  return s;
}

TEST(TurnDetectorTest, QuietGyroNeverTrips) {
  TurnDetector det;
  util::Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    det.update(sample(0.01 * i, 0.002 + rng.normal(0.0, 0.006)));
    EXPECT_FALSE(det.is_turning()) << "at sample " << i;
  }
}

TEST(TurnDetectorTest, RealTurnTripsQuickly) {
  TurnDetector det;
  double t = 0.0;
  // Warm up with silence.
  for (; t < 1.0; t += 0.01) det.update(sample(t, 0.0));
  // Then a 0.25 rad/s body yaw (intersection turn).
  double detect_time = -1.0;
  for (; t < 3.0; t += 0.01) {
    if (det.update(sample(t, 0.25)) && detect_time < 0.0) detect_time = t;
  }
  ASSERT_GT(detect_time, 0.0);
  EXPECT_LT(detect_time - 1.0, 0.3);  // within 300 ms of turn onset
}

TEST(TurnDetectorTest, ReleasesAfterTurnWithHold) {
  TurnDetector::Config cfg;
  cfg.hold_after_s = 0.4;
  TurnDetector det(cfg);
  double t = 0.0;
  for (; t < 1.0; t += 0.01) det.update(sample(t, 0.3));
  EXPECT_TRUE(det.is_turning());
  // Back to straight driving.
  double release_time = -1.0;
  for (; t < 4.0; t += 0.01) {
    if (!det.update(sample(t, 0.0)) && release_time < 0.0) release_time = t;
  }
  ASSERT_GT(release_time, 0.0);
  // Released, but only after the hold interval.
  EXPECT_GT(release_time - 1.0, cfg.hold_after_s * 0.9);
  EXPECT_LT(release_time - 1.0, 1.5);
  EXPECT_FALSE(det.is_turning());
}

TEST(TurnDetectorTest, HysteresisPreventsChatter) {
  TurnDetector::Config cfg;
  cfg.yaw_rate_threshold = 0.05;
  cfg.release_ratio = 0.6;
  cfg.hold_after_s = 0.0;
  TurnDetector det(cfg);
  double t = 0.0;
  for (; t < 1.0; t += 0.01) det.update(sample(t, 0.06));  // above
  EXPECT_TRUE(det.is_turning());
  // Drop into the hysteresis band (between release and trip levels).
  int flips = 0;
  bool prev = true;
  for (; t < 2.0; t += 0.01) {
    const bool cur = det.update(sample(t, 0.04));
    if (cur != prev) ++flips;
    prev = cur;
  }
  EXPECT_TRUE(det.is_turning());  // 0.04 > 0.05*0.6 = 0.03: stays latched
  EXPECT_EQ(flips, 0);
}

TEST(TurnDetectorTest, SmoothingSuppressesSpikes) {
  TurnDetector det;
  double t = 0.0;
  for (; t < 1.0; t += 0.01) det.update(sample(t, 0.0));
  // One wild 1-sample spike (sensor glitch) must not trip the detector.
  det.update(sample(t, 2.0));
  t += 0.01;
  EXPECT_FALSE(det.update(sample(t, 0.0)));
}

TEST(TurnDetectorTest, NegativeYawDetectedToo) {
  TurnDetector det;
  double t = 0.0;
  for (; t < 0.5; t += 0.01) det.update(sample(t, 0.0));
  for (; t < 1.5; t += 0.01) det.update(sample(t, -0.3));
  EXPECT_TRUE(det.is_turning());
}

TEST(TurnDetectorTest, EqualTimestampsStayWithinTheSampleCap) {
  // Equal timestamps defeat the time-based trim; the sample cap bounds
  // the window, and every sample dropped past it is counted.
  obs::Counter capped;
  TurnDetector det;
  det.set_capped_counter(&capped);
  const std::size_t cap = det.window_cap();
  EXPECT_EQ(cap, static_cast<std::size_t>(std::ceil(
                     det.config().smooth_window_s * kMaxImuFeedRateHz)) +
                     1);
  constexpr std::size_t kSamples = 20000;
  for (std::size_t i = 0; i < kSamples; ++i) {
    det.update(sample(1.0, i % 2 == 0 ? 0.3 : -0.3));
  }
  EXPECT_EQ(det.window_size(), cap);
  EXPECT_EQ(capped.value(), kSamples - cap);

  // A clean 100 Hz feed never reaches the cap.
  obs::Counter clean_capped;
  TurnDetector clean;
  clean.set_capped_counter(&clean_capped);
  for (int i = 0; i < 5000; ++i) clean.update(sample(0.01 * i, 0.1));
  EXPECT_EQ(clean_capped.value(), 0u);
}

}  // namespace
}  // namespace vihot::imu
