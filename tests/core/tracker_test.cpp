#include "core/tracker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>

#include "obs/sink.h"
#include "tests/core/test_helpers.h"
#include "sim/drive_sim.h"
#include "sim/metrics.h"
#include "util/stats.h"
#include "wifi/link.h"

namespace vihot::core {
namespace {

// Full-stack fixture: simulated profile + one simulated drive.
class TrackerTest : public ::testing::Test {
 protected:
  void run_drive(ViHotTracker& tracker, double duration,
                 std::vector<double>* errors,
                 bool steering_events = false) {
    sim::ScenarioConfig config = testing::fast_scenario();
    config.runtime_duration_s = duration;
    config.steering_events = steering_events;
    util::Rng rng(5551);
    const motion::HeadPositionGrid grid(config.driver.head_center,
                                        config.num_positions,
                                        config.position_spacing_m);
    util::Rng chan_rng = rng.fork("channel");
    const channel::ChannelModel channel =
        sim::make_channel(config, 0.0, chan_rng);
    wifi::WifiLink link(channel, config.noise, config.scheduler,
                        rng.fork("link"));
    sim::DriveSession session(config, grid.position(grid.count() / 2),
                              rng.fork("drive"));
    const auto csi = link.capture(0.0, duration, [&](double t) {
      return session.cabin_state_at(t);
    });
    imu::PhoneImu phone(imu::PhoneImu::Config{}, rng.fork("imu"));
    const auto imu_samples = phone.capture(0.0, duration,
                                           session.car_dynamics(),
                                           session.steering());
    camera::CameraTracker cam(camera::CameraTracker::Config{},
                              rng.fork("camera"));
    const auto cam_stream = cam.capture(
        0.0, duration, [&](double t) { return session.head_at(t); });

    std::size_t ci = 0;
    std::size_t ii = 0;
    std::size_t mi = 0;
    for (double t = 1.5; t < duration; t += 0.05) {
      while (ci < csi.size() && csi[ci].t <= t) tracker.push_csi(csi[ci++]);
      while (ii < imu_samples.size() && imu_samples[ii].t <= t) {
        tracker.push_imu(imu_samples[ii++]);
      }
      while (mi < cam_stream.size() && cam_stream[mi].t <= t) {
        tracker.push_camera(cam_stream[mi++]);
      }
      const TrackResult r = tracker.estimate(t);
      const motion::HeadState truth = session.head_at(t);
      if (!r.valid) continue;
      if (std::abs(truth.pose.theta) < 0.035 &&
          std::abs(truth.theta_dot) < 0.17) {
        continue;
      }
      errors->push_back(
          sim::angular_error_deg(r.theta_rad, truth.pose.theta));
    }
  }
};

TEST_F(TrackerTest, DropsAndCountsOutOfOrderCsi) {
  // Regression for the debug-only TimeSeries::push assert: a stale frame
  // must be dropped (and counted), not pushed into the sorted buffer.
  obs::Sink sink;
  TrackerConfig config;
  config.sink = &sink;
  ViHotTracker tracker(testing::synthetic_profile(3), config);
  const auto make = [](double t) {
    wifi::CsiMeasurement m;
    m.t = t;
    m.h[0].assign(4, std::polar(1.0, 0.3));
    m.h[1].assign(4, {1.0, 0.0});
    return m;
  };
  tracker.push_csi(make(1.00));
  tracker.push_csi(make(1.01));
  tracker.push_csi(make(0.50));  // out of order: dropped
  tracker.push_csi(make(1.02));
  EXPECT_EQ(sink.tracker.csi_out_of_order.value(), 1u);

  // The output-loop counters tick per estimate and per served mode.
  (void)tracker.estimate(1.02);
  (void)tracker.estimate(1.02);
  EXPECT_EQ(sink.tracker.estimates.value(), 2u);
  EXPECT_EQ(sink.tracker.mode_csi.value(), 2u);
  EXPECT_EQ(sink.tracker.mode_fallback.value(), 0u);
}

TEST_F(TrackerTest, DropsAndCountsNonFiniteCsi) {
  // A NaN timestamp compares false against everything: pushed, it would
  // become the buffer's back and let a later stale frame past the
  // out-of-order check. Non-finite frames are dropped and counted first.
  obs::Sink sink;
  TrackerConfig config;
  config.sink = &sink;
  ViHotTracker tracker(testing::synthetic_profile(3), config);
  ViHotTracker clean(testing::synthetic_profile(3), TrackerConfig{});
  const auto make = [](double t) {
    wifi::CsiMeasurement m;
    m.t = t;
    m.h[0].assign(4, std::polar(1.0, 0.3));
    m.h[1].assign(4, {1.0, 0.0});
    return m;
  };
  const double nan = std::nan("");
  wifi::CsiMeasurement inf_coeff = make(1.01);
  inf_coeff.h[0][2] = {INFINITY, 0.0};
  wifi::CsiMeasurement nan_coeff = make(1.01);
  nan_coeff.h[1][0] = {1.0, nan};
  for (const wifi::CsiMeasurement& m :
       {make(1.00), make(nan), inf_coeff, nan_coeff, make(0.50), make(1.02)}) {
    tracker.push_csi(m);
  }
  clean.push_csi(make(1.00));
  clean.push_csi(make(1.02));
  EXPECT_EQ(sink.tracker.csi_non_finite.value(), 3u);
  EXPECT_EQ(sink.tracker.csi_out_of_order.value(), 1u);
  const TrackResult got = tracker.estimate(1.02);
  const TrackResult want = clean.estimate(1.02);
  EXPECT_EQ(got.valid, want.valid);
  EXPECT_EQ(got.theta_rad, want.theta_rad);
}

TEST_F(TrackerTest, HostileTimestampBurstsStayBounded) {
  // Equal or nanosecond-spaced timestamps defeat the time-based trims of
  // the phase history and the stable-phase window; the sample caps bound
  // both, and every dropped sample is counted.
  obs::Sink sink;
  TrackerConfig config;
  config.sink = &sink;
  ViHotTracker tracker(testing::synthetic_profile(3), config);
  wifi::CsiMeasurement m;
  m.h[0].assign(4, std::polar(1.0, 0.3));
  m.h[1].assign(4, {1.0, 0.0});
  // The tracker's history span: longest candidate segment, stability
  // window and 1.5 s of slack.
  const std::size_t history_bound =
      2 * csi_history_cap(config.matcher.window_s *
                              config.matcher.max_length_factor +
                          config.stability.window_s + 1.5);
  const std::size_t window_bound =
      csi_history_cap(config.stability.window_s);
  constexpr int kFrames = 1000000;
  m.t = 1.0;
  for (int i = 0; i < kFrames; ++i) tracker.push_csi(m);
  EXPECT_LE(tracker.phase_history_size(), history_bound);
  EXPECT_LE(tracker.stability().window_size(), window_bound);
  for (int i = 1; i <= kFrames; ++i) {
    m.t = 1.0 + 1e-9 * static_cast<double>(i);
    tracker.push_csi(m);
  }
  EXPECT_LE(tracker.phase_history_size(), history_bound);
  EXPECT_LE(tracker.stability().window_size(), window_bound);
  EXPECT_GT(sink.tracker.csi_history_capped.value(),
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(sink.tracker.csi_out_of_order.value(), 0u);

  // A clean 500 Hz feed never reaches either cap.
  obs::Sink clean_sink;
  TrackerConfig clean_config;
  clean_config.sink = &clean_sink;
  ViHotTracker clean(testing::synthetic_profile(3), clean_config);
  for (int i = 0; i < 10000; ++i) {
    m.t = 0.002 * static_cast<double>(i);
    clean.push_csi(m);
  }
  EXPECT_EQ(clean_sink.tracker.csi_history_capped.value(), 0u);
}

TEST_F(TrackerTest, TracksWithLowMedianError) {
  ViHotTracker tracker(testing::simulated_profile(), TrackerConfig{});
  std::vector<double> errors;
  run_drive(tracker, 20.0, &errors);
  ASSERT_GT(errors.size(), 20u);
  // The paper's headline band: 4-10 deg median.
  EXPECT_LT(util::median(errors), 12.0);
}

TEST_F(TrackerTest, EmptyProfileNeverValid) {
  ViHotTracker tracker(CsiProfile{}, TrackerConfig{});
  wifi::CsiMeasurement m;
  m.t = 0.0;
  m.h[0].assign(30, {1.0, 0.0});
  m.h[1].assign(30, {1.0, 0.0});
  tracker.push_csi(m);
  EXPECT_FALSE(tracker.estimate(0.1).valid);
}

TEST_F(TrackerTest, InvalidBeforeSetupTime) {
  ViHotTracker tracker(testing::simulated_profile(), TrackerConfig{});
  // No CSI pushed at all: nothing to match.
  EXPECT_FALSE(tracker.estimate(0.05).valid);
}

TEST_F(TrackerTest, PositionSlotConvergesToTruth) {
  ViHotTracker tracker(testing::simulated_profile(), TrackerConfig{});
  std::vector<double> errors;
  run_drive(tracker, 20.0, &errors);
  // The drive sits at the middle grid slot.
  const std::size_t mid = testing::simulated_profile().size() / 2;
  const std::size_t got = tracker.position_slot();
  EXPECT_LE(got > mid ? got - mid : mid - got, 1u);
}

TEST_F(TrackerTest, SteeringEventsSwitchToFallback) {
  TrackerConfig cfg;
  ViHotTracker tracker(testing::simulated_profile(), cfg);
  std::vector<double> errors;
  run_drive(tracker, 25.0, &errors, /*steering_events=*/true);
  // The identifier must have engaged at least once over 25 s with turn
  // events scheduled (mean interval 25 s, but micro+events both exist).
  // The mode is a function of the last IMU state; just sanity check the
  // API and the error level stays sane despite steering interference.
  EXPECT_LT(util::median(errors), 25.0);
}

TEST_F(TrackerTest, SteeringFallbackUsesCameraEstimate) {
  // Force the identifier into fallback with sustained body yaw, provide a
  // camera estimate, and check the output comes from the camera.
  ViHotTracker tracker(testing::simulated_profile(), TrackerConfig{});
  for (double t = 0.0; t < 1.0; t += 0.01) {
    imu::ImuSample s;
    s.t = t;
    s.gyro_yaw_rad_s = 0.3;  // intersection turn
    tracker.push_imu(s);
  }
  EXPECT_EQ(tracker.mode(), TrackingMode::kCameraFallback);
  camera::CameraTracker::Estimate cam;
  cam.t = 0.98;
  cam.theta = 0.42;
  cam.valid = true;
  tracker.push_camera(cam);
  const TrackResult r = tracker.estimate(1.0);
  EXPECT_EQ(r.mode, TrackingMode::kCameraFallback);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.theta_rad, 0.42, 1e-9);
}

TEST_F(TrackerTest, FallbackInvalidWithoutFreshCamera) {
  ViHotTracker tracker(testing::simulated_profile(), TrackerConfig{});
  for (double t = 0.0; t < 1.0; t += 0.01) {
    imu::ImuSample s;
    s.t = t;
    s.gyro_yaw_rad_s = 0.3;
    tracker.push_imu(s);
  }
  // A stale camera estimate (older than camera_staleness_s) is rejected.
  camera::CameraTracker::Estimate cam;
  cam.t = 0.2;
  cam.theta = 0.42;
  cam.valid = true;
  tracker.push_camera(cam);
  const TrackResult r = tracker.estimate(1.0);
  EXPECT_EQ(r.mode, TrackingMode::kCameraFallback);
  EXPECT_FALSE(r.valid);
}

TEST_F(TrackerTest, InvalidCameraEstimatesIgnored) {
  ViHotTracker tracker(testing::simulated_profile(), TrackerConfig{});
  for (double t = 0.0; t < 1.0; t += 0.01) {
    imu::ImuSample s;
    s.t = t;
    s.gyro_yaw_rad_s = 0.3;
    tracker.push_imu(s);
  }
  camera::CameraTracker::Estimate cam;
  cam.t = 0.99;
  cam.theta = 1.0;
  cam.valid = false;  // lost-track frame
  tracker.push_camera(cam);
  EXPECT_FALSE(tracker.estimate(1.0).valid);
}

TEST_F(TrackerTest, ForecastNeedsAMatch) {
  ViHotTracker tracker(testing::simulated_profile(), TrackerConfig{});
  EXPECT_FALSE(tracker.forecast(0.1).valid);
  std::vector<double> errors;
  run_drive(tracker, 10.0, &errors);
  const Forecast f = tracker.forecast(0.1);
  // After a drive with matches, forecasting works.
  EXPECT_TRUE(f.valid);
}

TEST_F(TrackerTest, JumpFilterLimitsOutputRate) {
  TrackerConfig cfg;
  cfg.jump_filter_enabled = true;
  ViHotTracker tracker(testing::simulated_profile(), cfg);
  sim::ScenarioConfig config = testing::fast_scenario();
  // Track output deltas over a drive; no two consecutive outputs (50 ms
  // apart) may exceed the configured rate bound + slack, except for
  // re-lock jumps which are rare.
  util::Rng rng(777);
  const motion::HeadPositionGrid grid(config.driver.head_center,
                                      config.num_positions,
                                      config.position_spacing_m);
  util::Rng chan_rng = rng.fork("channel");
  const channel::ChannelModel channel =
      sim::make_channel(config, 0.0, chan_rng);
  wifi::WifiLink link(channel, config.noise, config.scheduler,
                      rng.fork("link"));
  sim::DriveSession session(config, grid.position(grid.count() / 2),
                            rng.fork("drive"));
  const auto csi = link.capture(0.0, 15.0, [&](double t) {
    return session.cabin_state_at(t);
  });
  std::size_t ci = 0;
  double prev = 0.0;
  bool have_prev = false;
  int big_jumps = 0;
  int outputs = 0;
  for (double t = 1.5; t < 15.0; t += 0.05) {
    while (ci < csi.size() && csi[ci].t <= t) tracker.push_csi(csi[ci++]);
    const TrackResult r = tracker.estimate(t);
    if (!r.valid) continue;
    if (have_prev &&
        std::abs(r.theta_rad - prev) >
            cfg.max_theta_rate_rad_s * 0.05 + 0.05) {
      ++big_jumps;
    }
    prev = r.theta_rad;
    have_prev = true;
    ++outputs;
  }
  ASSERT_GT(outputs, 100);
  EXPECT_LT(static_cast<double>(big_jumps) / outputs, 0.12);
}

// ------------------------------------------------------------------------
// Staged re-lock and twin-branch tie-break, driven through the full
// tracker with hand-built profiles whose phase curves make the failure
// modes exact (stages_test.cpp covers the stages in isolation).

// Phase-controlled measurement: h[0] carries phase `phi` against a flat
// h[1], so the sanitized antenna-difference phase is exactly `phi`.
wifi::CsiMeasurement phase_measurement(double t, double phi) {
  wifi::CsiMeasurement m;
  m.t = t;
  m.h[0].assign(4, std::polar(1.0, phi));
  m.h[1].assign(4, {1.0, 0.0});
  return m;
}

// Single-position profile sweeping theta in [lo, hi] as a triangle wave
// at 1.6 rad/s, with phase = phase_of(theta).
template <typename PhaseFn>
CsiProfile swept_profile(PhaseFn&& phase_of, double lo = -2.0,
                         double hi = 2.0, std::size_t num_samples = 2000) {
  PositionProfile pos;
  pos.position_index = 0;
  pos.fingerprint_phase = phase_of(0.0);
  pos.csi.t0 = 0.0;
  pos.csi.dt = 1.0 / 200.0;
  pos.orientation.t0 = 0.0;
  pos.orientation.dt = pos.csi.dt;
  const double period = 2.0 * (hi - lo) / 1.6;  // out & back at 1.6 rad/s
  for (std::size_t k = 0; k < num_samples; ++k) {
    const double t = pos.csi.time_at(k);
    const double u = std::fmod(t, period) / period;
    const double theta = lo + (hi - lo) * (u < 0.5 ? 2.0 * u
                                                   : 2.0 - 2.0 * u);
    pos.orientation.values.push_back(theta);
    pos.csi.values.push_back(phase_of(theta));
  }
  CsiProfile profile;
  profile.sample_rate_hz = 200.0;
  profile.reference_phase = 0.0;
  profile.positions.push_back(std::move(pos));
  return profile;
}

TEST_F(TrackerTest, WrongBranchHintRecoversViaStagedRelock) {
  // Injective unit-slope curve: phase == theta, so match quality reads
  // directly as branch correctness.
  const CsiProfile profile = swept_profile([](double th) { return th; });

  TrackerConfig cfg;
  // Tight continuity (0.125 rad reachable per 50 ms tick) and quick
  // escalation, with the window-energy global switch disabled so the
  // ONLY recovery path is the staged re-lock ladder.
  cfg.max_theta_rate_rad_s = 0.5;
  cfg.continuity_slack_rad = 0.1;
  cfg.relock_patience = 2;
  cfg.moving_spread_rad = 10.0;
  cfg.bias_correction = false;
  ViHotTracker tracker(profile, cfg);

  // The head: forward start, steady turn to +0.8 — then the tracker's
  // belief is invalidated by a teleport to -1.5 (in reality: the hint
  // locked a wrong branch and the true motion diverged).
  const auto theta_true = [](double t) {
    return t <= 1.0 ? 0.8 * t : -1.5 + 0.8 * (t - 1.0);
  };
  double next_csi = 0.0;
  double recovered_at = -1.0;
  bool wrong_branch_held = false;
  for (double t = 0.15; t < 2.0; t += 0.05) {
    for (; next_csi <= t; next_csi += 0.004) {
      tracker.push_csi(phase_measurement(next_csi, theta_true(next_csi)));
    }
    const TrackResult r = tracker.estimate(t);
    if (t <= 1.0) continue;
    ASSERT_TRUE(r.valid) << "t=" << t;
    const double err = std::abs(r.theta_rad - theta_true(t));
    if (t < 1.1) {
      // Inside the patience span the wrong branch is still held: the
      // hint forbids the 2.3 rad jump.
      EXPECT_GT(err, 0.8) << "t=" << t;
      wrong_branch_held = true;
    } else if (err < 0.2 && recovered_at < 0.0) {
      recovered_at = t;
    }
  }
  EXPECT_TRUE(wrong_branch_held);
  // Two escalations at patience 2 (widen at ~2 ticks, global at ~4) plus
  // slack: the global stage must have re-locked within half a second.
  ASSERT_GT(recovered_at, 0.0) << "tracker never re-locked";
  EXPECT_LT(recovered_at, 1.5);

  // And it keeps tracking the true branch afterwards.
  const TrackResult end = tracker.estimate(2.0);
  ASSERT_TRUE(end.valid);
  EXPECT_NEAR(end.theta_rad, theta_true(2.0), 0.2);
}

TEST_F(TrackerTest, AmbiguousGlobalMatchFollowsContinuity) {
  // Periodic curve: theta and theta + pi/2 produce IDENTICAL phase and
  // slope — exact twin branches. Two trackers are walked to twin priors
  // and then fed the exact same fast (global-regime) phase stream; each
  // must resolve the ambiguity toward its own reachable branch.
  const auto phase_of = [](double th) { return 0.4 * std::sin(4.0 * th); };
  constexpr double kTwin = 1.5707963267948966;  // pi/2: sin(4th) period
  // The range holds exactly the two twin branches the test walks, and
  // the sweep covers exactly ONE period: each branch then appears once
  // per leg (2 branches x 2 legs = the matcher's top-4 candidate list),
  // so the reachable branch is always among the reported candidates.
  // More range or more periods would crowd it out with duplicates.
  const CsiProfile profile =
      swept_profile(phase_of, -1.2, 1.6, /*num_samples=*/700);

  TrackerConfig cfg;
  cfg.moving_spread_rad = 0.15;  // the fast segment must match globally
  cfg.bias_correction = false;
  ViHotTracker a(profile, cfg);
  ViHotTracker b(profile, cfg);

  // Twin priors a quarter-period apart; the walks are slow enough to
  // stay in the hinted regime, then a dwell parks each tracker on its
  // branch before the fast ambiguous segment.
  const auto theta_a = [&](double t) {
    if (t <= 0.2) return 0.0;
    if (t <= 2.2) return -0.5 * (t - 0.2);
    if (t <= 2.6) return -1.0;
    return -1.0 + 2.5 * (t - 2.6);
  };
  const auto theta_b = [&](double t) {
    if (t <= 0.2) return 0.0;
    if (t <= 0.2 + 2.0 * (kTwin - 1.0)) return 0.5 * (t - 0.2);
    if (t <= 2.6) return kTwin - 1.0;
    return kTwin - 1.0 + 2.5 * (t - 2.6);
  };

  double next_csi = 0.0;
  TrackResult ra, rb;
  for (double t = 0.15; t <= 2.9; t += 0.05) {
    for (; next_csi <= t; next_csi += 0.004) {
      a.push_csi(phase_measurement(next_csi, phase_of(theta_a(next_csi))));
      b.push_csi(phase_measurement(next_csi, phase_of(theta_b(next_csi))));
    }
    ra = a.estimate(t);
    rb = b.estimate(t);
    if (t > 2.5 && t < 2.6) {
      // Both parked on their priors before the ambiguous segment.
      ASSERT_TRUE(ra.valid);
      ASSERT_TRUE(rb.valid);
      ASSERT_NEAR(ra.theta_rad, -1.0, 0.2);
      ASSERT_NEAR(rb.theta_rad, kTwin - 1.0, 0.2);
    }
  }
  // From t = 2.6 the two phase streams are IDENTICAL (twin branches), yet
  // each tracker must have followed its own: the tie-break picked the
  // continuity-reachable candidate, not an arbitrary twin.
  ASSERT_TRUE(ra.valid);
  ASSERT_TRUE(rb.valid);
  EXPECT_NEAR(ra.theta_rad, theta_a(2.9), 0.25);
  EXPECT_NEAR(rb.theta_rad, theta_b(2.9), 0.25);
  EXPECT_NEAR(rb.theta_rad - ra.theta_rad, kTwin, 0.3);
}

// --------------------------------------------------------- stale window

TEST(StaleWindowTest, FeedGapForcesRelockAndCountsIt) {
  obs::Sink sink;
  TrackerConfig config;
  config.sink = &sink;
  ASSERT_GT(config.stale_window_s, 0.0);  // guard is on by default
  ViHotTracker tracker(testing::synthetic_profile(3), config);
  const auto theta_at = [](double t) { return 0.8 * std::sin(0.9 * t); };
  const auto feed = [&](double from, double to) {
    for (double t = from; t < to; t += 0.005) {
      tracker.push_csi(
          phase_measurement(t, testing::synthetic_phase(theta_at(t))));
    }
  };

  // Continuous feed: the guard must never fire.
  feed(0.0, 3.0);
  for (double t = 1.0; t < 3.0; t += 0.05) (void)tracker.estimate(t);
  EXPECT_EQ(sink.tracker.stale_window_relocks.value(), 0u);

  // A feed gap wider than the stale window (burst loss), then resume:
  // the first estimate after the gap must reset continuity (count a
  // relock) instead of extrapolating the pre-gap output across it.
  feed(3.0 + config.stale_window_s + 0.8, 6.5);
  bool valid_after = false;
  for (double t = 4.6; t < 6.5; t += 0.05) {
    valid_after = tracker.estimate(t).valid || valid_after;
  }
  EXPECT_GE(sink.tracker.stale_window_relocks.value(), 1u);
  EXPECT_TRUE(valid_after);  // the tracker re-locks, it does not die
}

TEST(StaleWindowTest, ZeroDisablesTheGuard) {
  obs::Sink sink;
  TrackerConfig config;
  config.sink = &sink;
  config.stale_window_s = 0.0;
  ViHotTracker tracker(testing::synthetic_profile(3), config);
  for (double t = 0.0; t < 2.0; t += 0.005) {
    tracker.push_csi(phase_measurement(
        t, testing::synthetic_phase(0.8 * std::sin(0.9 * t))));
  }
  for (double t = 1.0; t < 2.0; t += 0.05) (void)tracker.estimate(t);
  // A wide gap, then resume: with the guard disabled nothing is counted.
  for (double t = 5.0; t < 6.0; t += 0.005) {
    tracker.push_csi(phase_measurement(
        t, testing::synthetic_phase(0.8 * std::sin(0.9 * t))));
  }
  (void)tracker.estimate(5.5);
  EXPECT_EQ(sink.tracker.stale_window_relocks.value(), 0u);
}

}  // namespace
}  // namespace vihot::core
