#include "core/orientation_estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/core/test_helpers.h"
#include "util/rng.h"

namespace vihot::core {
namespace {

// Builds a run-time phase stream for a head following theta_fn, sampled
// irregularly like CSMA, against the synthetic curve of test_helpers.
template <typename ThetaFn>
util::TimeSeries synthetic_stream(ThetaFn&& theta_fn, double t0, double t1,
                                  double fingerprint = 0.0,
                                  double noise_std = 0.004,
                                  std::uint64_t seed = 9) {
  util::Rng rng(seed);
  util::TimeSeries out;
  double t = t0;
  while (t < t1) {
    out.push(t, testing::synthetic_phase(theta_fn(t), fingerprint) +
                    rng.normal(0.0, noise_std));
    t += rng.uniform(0.0015, 0.0030);
  }
  return out;
}

TEST(OrientationEstimatorTest, TracksAMovingHead) {
  const PositionProfile pos = testing::synthetic_position();
  const OrientationEstimator est;
  // Head turning at ~1.5 rad/s through the well-conditioned region.
  const auto theta_fn = [](double t) { return -0.8 + 1.5 * (t - 1.0); };
  const util::TimeSeries stream = synthetic_stream(theta_fn, 0.9, 2.0);
  for (double t = 1.15; t < 1.9; t += 0.1) {
    const OrientationEstimate e = est.estimate(pos, stream, t);
    ASSERT_TRUE(e.valid) << "t=" << t;
    EXPECT_NEAR(e.theta_rad, theta_fn(t), 0.12) << "t=" << t;
  }
}

TEST(OrientationEstimatorTest, SetupTimeReturnsInvalid) {
  const PositionProfile pos = testing::synthetic_position();
  const OrientationEstimator est;
  const util::TimeSeries stream =
      synthetic_stream([](double) { return 0.0; }, 1.0, 1.05);
  // Window (100 ms) not yet covered by the stream.
  EXPECT_FALSE(est.estimate(pos, stream, 1.04).valid);
}

TEST(OrientationEstimatorTest, EmptyProfileInvalid) {
  PositionProfile empty;
  const OrientationEstimator est;
  const util::TimeSeries stream =
      synthetic_stream([](double) { return 0.0; }, 0.0, 1.0);
  EXPECT_FALSE(est.estimate(empty, stream, 0.5).valid);
}

TEST(OrientationEstimatorTest, SpeedRatioReflectsTurnSpeed) {
  const PositionProfile pos = testing::synthetic_position(
      0, 0.0, 200.0, /*sweep_speed_rad_s=*/1.6);
  const OrientationEstimator est;
  // Run-time turn twice as fast as the profile sweep: the matched
  // segment covers ~2x the window, so speed_ratio ~ 2.
  const auto fast = [](double t) { return -0.9 + 3.2 * (t - 1.0); };
  const util::TimeSeries stream = synthetic_stream(fast, 0.9, 1.5);
  const OrientationEstimate e = est.estimate(pos, stream, 1.4);
  ASSERT_TRUE(e.valid);
  EXPECT_GT(e.speed_ratio, 1.3);
  // And a slow turn gives a ratio below 1.
  const auto slow = [](double t) { return -0.6 + 0.8 * (t - 1.0); };
  const util::TimeSeries slow_stream = synthetic_stream(slow, 0.9, 2.2);
  const OrientationEstimate e2 = est.estimate(pos, slow_stream, 2.0);
  ASSERT_TRUE(e2.valid);
  EXPECT_LT(e2.speed_ratio, 1.1);
}

TEST(OrientationEstimatorTest, HardHintRestrictsBranch) {
  const PositionProfile pos = testing::synthetic_position();
  const OrientationEstimator est;
  const auto theta_fn = [](double t) { return 0.2 + 1.2 * (t - 1.0); };
  const util::TimeSeries stream = synthetic_stream(theta_fn, 0.9, 1.6);
  ContinuityHint hint;
  hint.theta_rad = theta_fn(1.5);
  hint.max_dev_rad = 0.3;
  MatchContext ctx;
  ctx.hard_hint = &hint;
  const OrientationEstimate e = est.estimate(pos, stream, 1.5, ctx);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.theta_rad, theta_fn(1.5), 0.3);
}

TEST(OrientationEstimatorTest, ImpossibleHintFindsNothing) {
  const PositionProfile pos = testing::synthetic_position();
  const OrientationEstimator est;
  const util::TimeSeries stream =
      synthetic_stream([](double) { return 0.0; }, 0.0, 1.0);
  ContinuityHint hint;
  hint.theta_rad = 5.0;  // outside the profiled range entirely
  hint.max_dev_rad = 0.1;
  MatchContext ctx;
  ctx.hard_hint = &hint;
  EXPECT_FALSE(est.estimate(pos, stream, 0.8, ctx).valid);
}

// The soft prior alone: a penalty soft_weight * (theta_end - soft_theta)^2
// per candidate pulls the winner's end toward soft_theta, at the price
// of a worse shape fit.
TEST(OrientationEstimatorTest, SoftPriorPullsTowardSoftTheta) {
  const PositionProfile pos = testing::synthetic_position();
  const OrientationEstimator est;
  const auto theta_fn = [](double t) { return -0.3 + 1.2 * (t - 1.0); };
  const util::TimeSeries stream = synthetic_stream(theta_fn, 0.9, 1.6);
  const OrientationEstimate free = est.estimate(pos, stream, 1.5);
  ASSERT_TRUE(free.valid);
  MatchContext ctx;
  ctx.soft_theta_rad = theta_fn(1.5) + 0.6;
  ctx.soft_weight = 1.0;
  const OrientationEstimate pulled = est.estimate(pos, stream, 1.5, ctx);
  ASSERT_TRUE(pulled.valid);
  EXPECT_LT(std::abs(pulled.theta_rad - ctx.soft_theta_rad),
            std::abs(free.theta_rad - ctx.soft_theta_rad) - 0.1);
  EXPECT_GT(pulled.match_distance, free.match_distance);
}

// Hard hint plus soft prior, each around its own center: the soft prior
// pulls the winner toward soft_theta, but never past the hard hint's
// reach, which excludes candidates whatever their score.
TEST(OrientationEstimatorTest, HardHintBoundsSoftPrior) {
  const PositionProfile pos = testing::synthetic_position();
  const OrientationEstimator est;
  const auto theta_fn = [](double t) { return -0.3 + 1.2 * (t - 1.0); };
  const util::TimeSeries stream = synthetic_stream(theta_fn, 0.9, 1.6);
  ContinuityHint hint;
  hint.theta_rad = theta_fn(1.5);
  hint.max_dev_rad = 0.3;
  MatchContext hard_only;
  hard_only.hard_hint = &hint;
  const OrientationEstimate hard = est.estimate(pos, stream, 1.5, hard_only);
  ASSERT_TRUE(hard.valid);

  MatchContext soft_only;
  soft_only.soft_theta_rad = hint.theta_rad + 0.6;
  soft_only.soft_weight = 1.0;
  const OrientationEstimate soft = est.estimate(pos, stream, 1.5, soft_only);
  ASSERT_TRUE(soft.valid);
  // Unbounded, the soft prior carries the winner beyond the hint.
  ASSERT_GT(soft.theta_rad, hint.theta_rad + hint.max_dev_rad);

  MatchContext both = soft_only;
  both.hard_hint = &hint;
  const OrientationEstimate e = est.estimate(pos, stream, 1.5, both);
  ASSERT_TRUE(e.valid);
  EXPECT_LE(std::abs(e.theta_rad - hint.theta_rad), hint.max_dev_rad);
  EXPECT_GT(e.theta_rad, hard.theta_rad);
  for (const auto& c : e.candidates) {
    EXPECT_LE(std::abs(c.theta_rad - hint.theta_rad), hint.max_dev_rad);
  }
}

TEST(OrientationEstimatorTest, PhaseBiasIsSubtracted) {
  const PositionProfile pos = testing::synthetic_position();
  const OrientationEstimator est;
  const auto theta_fn = [](double t) { return -0.5 + 1.4 * (t - 1.0); };
  // Stream with a 0.15 rad DC offset (head between grid positions).
  const util::TimeSeries stream =
      synthetic_stream(theta_fn, 0.9, 1.8, /*fingerprint=*/0.15);
  MatchContext ctx;
  ctx.phase_bias = 0.15;
  const OrientationEstimate with_bias = est.estimate(pos, stream, 1.6, ctx);
  const OrientationEstimate without = est.estimate(pos, stream, 1.6);
  ASSERT_TRUE(with_bias.valid);
  ASSERT_TRUE(without.valid);
  // With the bias removed the window matches the true region accurately.
  // (The un-corrected window can still fit SOME region with low cost —
  // that's the non-injectivity — so only the corrected accuracy is
  // asserted, not a distance ordering.)
  EXPECT_LT(with_bias.match_distance, 0.005);
  EXPECT_NEAR(with_bias.theta_rad, theta_fn(1.6), 0.15);
}

TEST(OrientationEstimatorTest, CandidatesSortedByDistance) {
  const PositionProfile pos = testing::synthetic_position();
  const OrientationEstimator est;
  const auto theta_fn = [](double t) { return 0.9 * std::sin(t); };
  const util::TimeSeries stream = synthetic_stream(theta_fn, 0.0, 3.0);
  const OrientationEstimate e = est.estimate(pos, stream, 2.5);
  ASSERT_TRUE(e.valid);
  ASSERT_GE(e.candidates.size(), 1u);
  EXPECT_DOUBLE_EQ(e.candidates.front().distance, e.match_distance);
  for (std::size_t i = 1; i < e.candidates.size(); ++i) {
    EXPECT_GE(e.candidates[i].distance, e.candidates[i - 1].distance);
  }
}

// Parameterized: tracking holds across window sizes (Fig. 13b's knob).
class WindowSizeProperty : public ::testing::TestWithParam<double> {};

TEST_P(WindowSizeProperty, TracksWithinTolerance) {
  MatcherConfig cfg;
  cfg.window_s = GetParam();
  const OrientationEstimator est(cfg);
  const PositionProfile pos = testing::synthetic_position();
  const auto theta_fn = [](double t) { return -0.7 + 1.3 * (t - 1.0); };
  const util::TimeSeries stream = synthetic_stream(theta_fn, 0.5, 2.2);
  const OrientationEstimate e = est.estimate(pos, stream, 2.0);
  ASSERT_TRUE(e.valid);
  EXPECT_NEAR(e.theta_rad, theta_fn(2.0), 0.25);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSizeProperty,
                         ::testing::Values(0.01, 0.02, 0.05, 0.1, 0.2, 0.3));

}  // namespace
}  // namespace vihot::core
