// Direct unit tests for the staged tracker pipeline: each stage is
// exercised in isolation, with inputs the slimmed ViHotTracker would
// hand it. tracker_test.cpp covers the composed behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/mode_arbiter.h"
#include "core/relock_policy.h"
#include "core/slot_matcher.h"
#include "core/tie_breaker.h"
#include "core/window_analyzer.h"
#include "dsp/series_match.h"
#include "obs/sink.h"
#include "tests/core/test_helpers.h"
#include "util/rng.h"

namespace vihot::core {
namespace {

// ---------------------------------------------------------------- stage 1

camera::CameraTracker::Estimate camera_estimate(double t, double theta,
                                                bool valid = true) {
  camera::CameraTracker::Estimate e;
  e.t = t;
  e.theta = theta;
  e.valid = valid;
  return e;
}

TEST(ModeArbiterTest, StartsInCsiAndSwitchesOnSteering) {
  ModeArbiter arbiter({}, /*camera_staleness_s=*/0.4);
  EXPECT_EQ(arbiter.mode(), TrackingMode::kCsi);

  // A hard intersection turn: well above the detector threshold.
  for (double t = 0.0; t < 0.5; t += 0.01) {
    arbiter.push_imu({t, /*gyro_yaw_rad_s=*/0.4, 0.0});
  }
  EXPECT_EQ(arbiter.mode(), TrackingMode::kCameraFallback);

  // Straight road again: verdict releases after the hold-off.
  for (double t = 0.5; t < 3.0; t += 0.01) {
    arbiter.push_imu({t, 0.0, 0.0});
  }
  EXPECT_EQ(arbiter.mode(), TrackingMode::kCsi);
}

TEST(ModeArbiterTest, CameraOutputHonorsStaleness) {
  ModeArbiter arbiter({}, /*camera_staleness_s=*/0.4);
  // No camera estimate cached yet.
  EXPECT_FALSE(arbiter.camera_output(1.0).valid);

  arbiter.push_camera(camera_estimate(1.0, 0.3));
  const ModeArbiter::CameraDecision fresh = arbiter.camera_output(1.2);
  EXPECT_TRUE(fresh.valid);
  EXPECT_DOUBLE_EQ(fresh.theta_rad, 0.3);

  // The same estimate is too old half a second later.
  EXPECT_FALSE(arbiter.camera_output(1.5).valid);
}

TEST(ModeArbiterTest, DropsLostTrackFrames) {
  ModeArbiter arbiter({}, /*camera_staleness_s=*/0.4);
  arbiter.push_camera(camera_estimate(1.0, 0.3));
  // A lost-track frame must not overwrite the cached good estimate.
  arbiter.push_camera(camera_estimate(1.2, 9.9, /*valid=*/false));
  const ModeArbiter::CameraDecision out = arbiter.camera_output(1.3);
  ASSERT_TRUE(out.valid);
  EXPECT_DOUBLE_EQ(out.theta_rad, 0.3);
}

TEST(ModeArbiterTest, CountsFallbackTransitionsAndServes) {
  obs::TrackerStats stats;
  ModeArbiter arbiter({}, /*camera_staleness_s=*/0.4);
  arbiter.set_stats(&stats);

  // One steering event = exactly one engage, however many samples it
  // spans.
  for (double t = 0.0; t < 0.5; t += 0.01) {
    arbiter.push_imu({t, 0.4, 0.0});
  }
  ASSERT_EQ(arbiter.mode(), TrackingMode::kCameraFallback);
  EXPECT_EQ(stats.fallback_engaged.value(), 1u);

  // No camera estimate cached: the fallback tick is stale.
  (void)arbiter.camera_output(0.5);
  EXPECT_EQ(stats.fallback_stale.value(), 1u);
  EXPECT_EQ(stats.fallback_served.value(), 0u);
  arbiter.push_camera(camera_estimate(0.5, 0.3));
  (void)arbiter.camera_output(0.6);
  EXPECT_EQ(stats.fallback_served.value(), 1u);

  // Recover, then a second event: engage count goes to exactly 2.
  for (double t = 0.5; t < 3.0; t += 0.01) arbiter.push_imu({t, 0.0, 0.0});
  ASSERT_EQ(arbiter.mode(), TrackingMode::kCsi);
  for (double t = 3.0; t < 3.5; t += 0.01) arbiter.push_imu({t, 0.4, 0.0});
  EXPECT_EQ(stats.fallback_engaged.value(), 2u);
}

// ---------------------------------------------------------------- stage 2

util::TimeSeries ramp_series(double t0, double t1, double level,
                             double slope) {
  util::TimeSeries out;
  for (double t = t0; t < t1; t += 0.005) {
    out.push(t, level + slope * (t - t0));
  }
  return out;
}

TEST(WindowAnalyzerTest, UncoveredWindowIsHinted) {
  const WindowAnalyzer analyzer({0.1, 0.05, 0.30});
  const util::TimeSeries empty;
  WindowAnalyzer::Analysis a = analyzer.analyze(empty, 1.0, true);
  EXPECT_LT(a.spread_rad, 0.0);
  EXPECT_EQ(a.regime, WindowRegime::kHinted);

  // Buffer exists but starts inside the window: still not covered.
  const util::TimeSeries partial = ramp_series(0.95, 1.0, 0.0, 0.0);
  a = analyzer.analyze(partial, 1.0, true);
  EXPECT_LT(a.spread_rad, 0.0);
  EXPECT_EQ(a.regime, WindowRegime::kHinted);
}

TEST(WindowAnalyzerTest, FlatRequiresPreviousOutput) {
  const WindowAnalyzer analyzer({0.1, 0.05, 0.30});
  const util::TimeSeries flat = ramp_series(0.0, 1.0, 0.7, 0.01);
  EXPECT_EQ(analyzer.analyze(flat, 1.0, true).regime, WindowRegime::kFlat);
  // With nothing to hold, a flat window still goes to the matcher.
  EXPECT_EQ(analyzer.analyze(flat, 1.0, false).regime,
            WindowRegime::kHinted);
}

TEST(WindowAnalyzerTest, SpreadSelectsRegime) {
  const WindowAnalyzer analyzer({0.1, 0.05, 0.30});
  // Spread over the last 100 ms = slope * 0.1.
  const util::TimeSeries medium = ramp_series(0.0, 1.0, 0.0, 1.5);
  const WindowAnalyzer::Analysis mid = analyzer.analyze(medium, 1.0, true);
  EXPECT_NEAR(mid.spread_rad, 0.15, 0.02);
  EXPECT_EQ(mid.regime, WindowRegime::kHinted);

  const util::TimeSeries fast = ramp_series(0.0, 1.0, 0.0, 5.0);
  const WindowAnalyzer::Analysis hi = analyzer.analyze(fast, 1.0, true);
  EXPECT_GT(hi.spread_rad, 0.30);
  EXPECT_EQ(hi.regime, WindowRegime::kGlobal);
}

TEST(WindowAnalyzerTest, CountsRegimesAndUncoveredWindows) {
  obs::TrackerStats stats;
  WindowAnalyzer analyzer({0.1, 0.05, 0.30});
  analyzer.set_stats(&stats);

  const util::TimeSeries empty;
  (void)analyzer.analyze(empty, 1.0, true);
  EXPECT_EQ(stats.window_uncovered.value(), 1u);
  EXPECT_EQ(stats.window_hinted.value(), 1u);

  const util::TimeSeries flat = ramp_series(0.0, 1.0, 0.7, 0.01);
  (void)analyzer.analyze(flat, 1.0, true);
  EXPECT_EQ(stats.window_flat.value(), 1u);

  const util::TimeSeries fast = ramp_series(0.0, 1.0, 0.0, 5.0);
  (void)analyzer.analyze(fast, 1.0, true);
  EXPECT_EQ(stats.window_global.value(), 1u);
  // Each call lands in exactly one regime bucket.
  EXPECT_EQ(stats.window_flat.value() + stats.window_hinted.value() +
                stats.window_global.value(),
            3u);
}

// ---------------------------------------------------------------- stage 3

// Run-time phase stream for a head following theta_fn against the
// synthetic curve of test_helpers (optionally offset by a session bias).
template <typename ThetaFn>
util::TimeSeries stream_for(ThetaFn&& theta_fn, double t0, double t1,
                            double fingerprint, double bias = 0.0) {
  util::Rng rng(17);
  util::TimeSeries out;
  for (double t = t0; t < t1; t += 0.004) {
    out.push(t, testing::synthetic_phase(theta_fn(t), fingerprint) + bias +
                    rng.normal(0.0, 0.003));
  }
  return out;
}

TEST(SlotMatcherTest, RecoversOrientationAtNominalSlot) {
  const CsiProfile profile = testing::synthetic_profile(5);
  const SlotMatcher matcher({MatcherConfig{}, 0, true, 0.0});
  const auto theta_fn = [](double t) { return -0.8 + 1.5 * (t - 1.0); };
  const util::TimeSeries stream =
      stream_for(theta_fn, 0.9, 1.6, profile.positions[2].fingerprint_phase);
  const SlotMatcher::Result r =
      matcher.match(profile, stream, 2, 1.5, nullptr, false, 0.0, {});
  ASSERT_TRUE(r.estimate.valid);
  EXPECT_EQ(r.matched_slot, 2u);
  EXPECT_NEAR(r.estimate.theta_rad, theta_fn(1.5), 0.12);
}

TEST(SlotMatcherTest, NeighborSlotWinsWhenItFitsBetter) {
  const CsiProfile profile = testing::synthetic_profile(5);
  const SlotMatcher matcher({MatcherConfig{}, 1, true, 0.0});
  const auto theta_fn = [](double t) { return -0.8 + 1.5 * (t - 1.0); };
  // The head actually sits at slot 3, but Eq. (4) localized slot 2: the
  // neighborhood search must pick the better-fitting neighbor curve.
  // Hinted tightly, like the tracker would: unconstrained (or loosely
  // constrained), the wrong slot absorbs its fingerprint offset with a
  // small theta shift along the curve slope and fits almost as well.
  const util::TimeSeries stream =
      stream_for(theta_fn, 0.9, 1.6, profile.positions[3].fingerprint_phase);
  const ContinuityHint hint{theta_fn(1.5), 0.1};
  const SlotMatcher::Result r =
      matcher.match(profile, stream, 2, 1.5, &hint, false, 0.0, {});
  ASSERT_TRUE(r.estimate.valid);
  EXPECT_EQ(r.matched_slot, 3u);
  EXPECT_NEAR(r.estimate.theta_rad, theta_fn(1.5), 0.12);
}

TEST(SlotMatcherTest, BiasCorrectionRestoresOffsetWindow) {
  const CsiProfile profile = testing::synthetic_profile(5);
  const double fp = profile.positions[2].fingerprint_phase;
  // The session's head sits between grid positions: the whole run-time
  // curve rides a constant offset relative to the slot-2 profile.
  const double session_bias = 0.25;
  const auto theta_fn = [](double t) { return -0.8 + 1.5 * (t - 1.0); };
  const util::TimeSeries stream =
      stream_for(theta_fn, 0.9, 1.6, fp, session_bias);
  const SlotMatcher::Bias bias{true, fp + session_bias};
  // Pin the search to the true branch: off-branch coincidences would
  // otherwise mask the offset this test is about.
  const ContinuityHint hint{theta_fn(1.5), 0.1};

  const SlotMatcher corrected({MatcherConfig{}, 0, true, 0.0});
  const SlotMatcher::Result with =
      corrected.match(profile, stream, 2, 1.5, &hint, false, 0.0, bias);
  ASSERT_TRUE(with.estimate.valid);
  EXPECT_NEAR(with.estimate.theta_rad, theta_fn(1.5), 0.12);

  // Same window, correction disabled: on the true branch the offset
  // curve fits decisively worse.
  const SlotMatcher uncorrected({MatcherConfig{}, 0, false, 0.0});
  const SlotMatcher::Result without =
      uncorrected.match(profile, stream, 2, 1.5, &hint, false, 0.0, bias);
  if (without.estimate.valid) {
    EXPECT_GT(without.estimate.match_distance,
              10.0 * with.estimate.match_distance);
  }
}

TEST(SlotMatcherTest, HardHintRestrictsCandidates) {
  const CsiProfile profile = testing::synthetic_profile(5);
  const SlotMatcher matcher({MatcherConfig{}, 0, true, 0.0});
  const auto theta_fn = [](double t) { return -0.8 + 1.5 * (t - 1.0); };
  const util::TimeSeries stream =
      stream_for(theta_fn, 0.9, 1.6, profile.positions[2].fingerprint_phase);
  // Hint pinned on the wrong side of the sweep with a tight deviation:
  // any surviving candidate must obey it.
  const ContinuityHint hint{0.9, 0.15};
  const SlotMatcher::Result r =
      matcher.match(profile, stream, 2, 1.5, &hint, false, 0.0, {});
  if (r.estimate.valid) {
    EXPECT_NEAR(r.estimate.theta_rad, hint.theta_rad, hint.max_dev_rad);
  }
}

TEST(SlotMatcherTest, EmptyProfileReturnsInvalid) {
  const CsiProfile empty;
  const SlotMatcher matcher;
  const util::TimeSeries stream =
      stream_for([](double) { return 0.0; }, 0.0, 1.0, 0.0);
  const SlotMatcher::Result r =
      matcher.match(empty, stream, 0, 0.9, nullptr, false, 0.0, {});
  EXPECT_FALSE(r.estimate.valid);
}

TEST(SlotMatcherTest, CountsAttemptsAndObservesMatchQuality) {
  obs::TrackerStats stats;
  const CsiProfile profile = testing::synthetic_profile(5);
  SlotMatcher matcher({MatcherConfig{}, 0, true, 0.0});
  matcher.set_stats(&stats);
  const auto theta_fn = [](double t) { return -0.8 + 1.5 * (t - 1.0); };
  const util::TimeSeries stream =
      stream_for(theta_fn, 0.9, 1.6, profile.positions[2].fingerprint_phase);

  const SlotMatcher::Result good =
      matcher.match(profile, stream, 2, 1.5, nullptr, false, 0.0, {});
  ASSERT_TRUE(good.estimate.valid);
  EXPECT_EQ(stats.match_attempts.value(), 1u);
  EXPECT_EQ(stats.match_invalid.value(), 0u);
  EXPECT_EQ(stats.dtw_best_cost.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.dtw_best_cost.max(), good.estimate.match_distance);
  EXPECT_EQ(stats.dtw_candidates.count(), 1u);

  // An uncovered stream cannot produce a candidate: attempt + invalid.
  const util::TimeSeries empty;
  const SlotMatcher::Result bad =
      matcher.match(profile, empty, 2, 1.5, nullptr, false, 0.0, {});
  EXPECT_FALSE(bad.estimate.valid);
  EXPECT_EQ(stats.match_attempts.value(), 2u);
  EXPECT_EQ(stats.match_invalid.value(), 1u);
  EXPECT_EQ(stats.dtw_best_cost.count(), 1u);

  // With a session bias engaged, its magnitude is observed.
  const SlotMatcher::Bias bias{
      true, profile.positions[2].fingerprint_phase + 0.2};
  (void)matcher.match(profile, stream, 2, 1.5, nullptr, false, 0.0, bias);
  EXPECT_EQ(stats.phase_bias_abs.count(), 1u);
  EXPECT_NEAR(stats.phase_bias_abs.max(), 0.2, 1e-9);
}

// ---------------------------------------------------------------- stage 4

OrientationEstimate match_with_distance(double distance,
                                        bool valid = true) {
  OrientationEstimate e;
  e.valid = valid;
  e.match_distance = distance;
  return e;
}

TEST(RelockPolicyTest, EscalatesWidenThenGlobal) {
  RelockPolicy policy({/*relock_distance=*/0.02, /*patience=*/2,
                       /*widen_factor=*/3.0});
  const OrientationEstimate poor = match_with_distance(0.08);

  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kNone);
  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kWiden);
  // The widened stage failed too: next exhaustion goes global.
  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kNone);
  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kGlobal);
  // After the global stage the ladder starts over.
  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kNone);
  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kWiden);
}

TEST(RelockPolicyTest, GoodMatchResetsTheLadder) {
  RelockPolicy policy({0.02, 2, 3.0});
  const OrientationEstimate poor = match_with_distance(0.08);
  const OrientationEstimate good = match_with_distance(0.005);

  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kNone);
  EXPECT_EQ(policy.observe(true, good), RelockPolicy::Action::kNone);
  // The streak restarts — and a good match also clears the widened stage.
  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kNone);
  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kWiden);
  EXPECT_EQ(policy.observe(true, good), RelockPolicy::Action::kNone);
  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kNone);
  EXPECT_EQ(policy.observe(true, poor), RelockPolicy::Action::kWiden);
}

TEST(RelockPolicyTest, InvalidMatchesCountAsPoor) {
  RelockPolicy policy({0.02, 2, 3.0});
  const OrientationEstimate invalid = match_with_distance(0.0, false);
  EXPECT_EQ(policy.observe(true, invalid), RelockPolicy::Action::kNone);
  EXPECT_EQ(policy.observe(true, invalid), RelockPolicy::Action::kWiden);
}

TEST(RelockPolicyTest, UnhintedMatchesNeverEscalate) {
  RelockPolicy policy({0.02, 1, 3.0});
  const OrientationEstimate poor = match_with_distance(0.5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(policy.observe(false, poor), RelockPolicy::Action::kNone);
  }
}

TEST(RelockPolicyTest, AcceptPrefersValidAndCloser) {
  const OrientationEstimate good = match_with_distance(0.01);
  const OrientationEstimate worse = match_with_distance(0.05);
  const OrientationEstimate invalid = match_with_distance(0.0, false);
  EXPECT_TRUE(RelockPolicy::accept(good, worse));
  EXPECT_FALSE(RelockPolicy::accept(worse, good));
  EXPECT_TRUE(RelockPolicy::accept(good, invalid));
  EXPECT_FALSE(RelockPolicy::accept(invalid, good));
}

TEST(RelockPolicyTest, CountsExactlyOneEscalationPerLadderStep) {
  obs::TrackerStats stats;
  RelockPolicy policy({/*relock_distance=*/0.02, /*patience=*/2,
                       /*widen_factor=*/3.0});
  policy.set_stats(&stats);
  const OrientationEstimate poor = match_with_distance(0.08);

  // Forcing the first escalation increments the widen counter exactly
  // once, and nothing else.
  (void)policy.observe(true, poor);
  ASSERT_EQ(policy.observe(true, poor), RelockPolicy::Action::kWiden);
  EXPECT_EQ(stats.relock_widen.value(), 1u);
  EXPECT_EQ(stats.relock_global.value(), 0u);

  (void)policy.observe(true, poor);
  ASSERT_EQ(policy.observe(true, poor), RelockPolicy::Action::kGlobal);
  EXPECT_EQ(stats.relock_widen.value(), 1u);
  EXPECT_EQ(stats.relock_global.value(), 1u);

  // Good matches never escalate, so the counters stay put.
  const OrientationEstimate good = match_with_distance(0.005);
  for (int i = 0; i < 5; ++i) (void)policy.observe(true, good);
  EXPECT_EQ(stats.relock_widen.value(), 1u);
  EXPECT_EQ(stats.relock_global.value(), 1u);
}

// ---------------------------------------------------------------- stage 5

OrientationEstimate ambiguous_global(double win_theta, double win_dist,
                                     double alt_theta, double alt_dist) {
  OrientationEstimate e;
  e.valid = true;
  e.theta_rad = win_theta;
  e.match_distance = win_dist;
  e.candidates.push_back({win_dist, win_theta, 1.0, 10, 20});
  e.candidates.push_back({alt_dist, alt_theta, 1.2, 300, 24});
  return e;
}

TEST(TieBreakerTest, NearTiePicksContinuityReachableBranch) {
  const TieBreaker breaker(3.0);
  OrientationEstimate e = ambiguous_global(1.9, 0.010, 0.15, 0.014);
  ASSERT_TRUE(breaker.apply(e, /*last_theta_rad=*/0.0));
  EXPECT_DOUBLE_EQ(e.theta_rad, 0.15);
  // The pick replaces the whole match, not just the angle: forecasting
  // needs the picked segment and speed ratio.
  EXPECT_DOUBLE_EQ(e.match_distance, 0.014);
  EXPECT_EQ(e.match_start, 300u);
  EXPECT_DOUBLE_EQ(e.speed_ratio, 1.2);
}

TEST(TieBreakerTest, DecisiveWinnerIsKept) {
  const TieBreaker breaker(3.0);
  // The alternative is continuity-closer but scores 10x worse: decisive
  // shape evidence must not be overridden.
  OrientationEstimate e = ambiguous_global(1.9, 0.010, 0.15, 0.120);
  EXPECT_FALSE(breaker.apply(e, 0.0));
  EXPECT_DOUBLE_EQ(e.theta_rad, 1.9);
}

TEST(TieBreakerTest, EpsilonCloserDoesNotFlip) {
  const TieBreaker breaker(3.0);
  // Both branches are ~equally far from the previous output: flipping
  // for a 0.05 rad gain would oscillate between ticks.
  OrientationEstimate e = ambiguous_global(0.40, 0.010, 0.35, 0.011);
  EXPECT_FALSE(breaker.apply(e, 0.38));
  EXPECT_DOUBLE_EQ(e.theta_rad, 0.40);
}

TEST(TieBreakerTest, CountsOnlyAppliedFlips) {
  obs::TrackerStats stats;
  TieBreaker breaker(3.0);
  breaker.set_stats(&stats);

  OrientationEstimate flipped = ambiguous_global(1.9, 0.010, 0.15, 0.014);
  ASSERT_TRUE(breaker.apply(flipped, 0.0));
  EXPECT_EQ(stats.tie_break_applied.value(), 1u);

  // A kept winner (decisive match) must not count as an activation.
  OrientationEstimate kept = ambiguous_global(1.9, 0.010, 0.15, 0.120);
  ASSERT_FALSE(breaker.apply(kept, 0.0));
  EXPECT_EQ(stats.tie_break_applied.value(), 1u);
}

TEST(TieBreakerTest, IgnoresInvalidAndUnambiguous) {
  const TieBreaker breaker(3.0);
  OrientationEstimate invalid;
  EXPECT_FALSE(breaker.apply(invalid, 0.0));

  OrientationEstimate single;
  single.valid = true;
  single.theta_rad = 1.0;
  single.candidates.push_back({0.01, 1.0, 1.0, 0, 10});
  EXPECT_FALSE(breaker.apply(single, 0.0));
  EXPECT_DOUBLE_EQ(single.theta_rad, 1.0);
}

// The matcher truncates its alternates at the TieBreaker's own bar (one
// shared function), so a truncated estimate weighs exactly what the full
// one would.
TEST(TieBreakerTest, MatcherTruncatesAtTheBreakersBar) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double ratio : {0.0, 0.5, 1.0, 3.0, 1e9, kInf}) {
    const TieBreaker breaker(ratio);
    for (const double d : {0.0, 5e-7, 1e-6, 0.01, 2.5}) {
      EXPECT_EQ(breaker.bar(d), dsp::tie_break_bar(ratio, d));
    }
  }

  const CsiProfile profile = testing::synthetic_profile(5);
  const auto theta_fn = [](double t) { return -0.8 + 1.5 * (t - 1.0); };
  const util::TimeSeries stream =
      stream_for(theta_fn, 0.9, 1.6, profile.positions[2].fingerprint_phase);
  const SlotMatcher full_matcher({MatcherConfig{}, 1, true, 0.0});
  bool truncated = false;
  for (const double t : {1.3, 1.4, 1.5}) {
    const OrientationEstimate full =
        full_matcher.match(profile, stream, 2, t, nullptr, true, 0.0, {})
            .estimate;
    ASSERT_TRUE(full.valid);
    for (const double ratio : {0.5, 1.05, 1.5, 3.0}) {
      const SlotMatcher matcher({MatcherConfig{}, 1, true, 0.0, ratio});
      const OrientationEstimate cut =
          matcher.match(profile, stream, 2, t, nullptr, true, 0.0, {})
              .estimate;
      const TieBreaker breaker(ratio);
      const double bar = breaker.bar(full.match_distance);
      std::size_t keep = full.candidates.size();
      for (std::size_t i = 2; i < full.candidates.size(); ++i) {
        if (full.candidates[i].distance > bar) {
          keep = i;
          break;
        }
      }
      truncated = truncated || keep < full.candidates.size();
      ASSERT_EQ(cut.candidates.size(), keep) << t << " " << ratio;
      EXPECT_EQ(cut.theta_rad, full.theta_rad);
      EXPECT_EQ(cut.match_distance, full.match_distance);
      EXPECT_EQ(cut.runner_up_distance, full.runner_up_distance);
      for (std::size_t i = 0; i < keep; ++i) {
        EXPECT_EQ(cut.candidates[i].distance, full.candidates[i].distance);
        EXPECT_EQ(cut.candidates[i].match_start,
                  full.candidates[i].match_start);
      }
      for (const double last : {-1.2, -0.4, 0.0, 0.6, 1.2}) {
        OrientationEstimate a = full;
        OrientationEstimate b = cut;
        EXPECT_EQ(breaker.apply(a, last), breaker.apply(b, last));
        EXPECT_EQ(a.theta_rad, b.theta_rad);
        EXPECT_EQ(a.match_start, b.match_start);
      }
    }
  }
  EXPECT_TRUE(truncated) << "no ratio cut an alternate";
}

}  // namespace
}  // namespace vihot::core
