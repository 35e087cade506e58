// End-to-end flight-recorder tests: record a live TrackerEngine run,
// replay it from the log, and require bit-identical outputs — across the
// synchronous push path, the async offer rings (with genuinely
// concurrent producers), session churn, and camera fallback feeds. Also
// the negative space: corrupt logs are rejected, a perturbed config
// yields a structured first-divergence report, and truncated logs
// refuse the bit-exactness claim. The concurrent tests double as the
// replay-gate's TSan targets.
#include "replay/replayer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <thread>

#include "engine/tracker_engine.h"
#include "replay/recorder.h"

namespace vihot::replay {
namespace {

using engine::SessionId;
using engine::TrackerEngine;

double phase_of(double theta) {
  return 0.8 * std::sin(1.3 * theta) + 0.35 * std::sin(2.6 * theta + 0.7);
}

core::CsiProfile make_profile() {
  core::PositionProfile pos;
  pos.position_index = 0;
  pos.fingerprint_phase = phase_of(0.0);
  pos.csi.t0 = 0.0;
  pos.csi.dt = 1.0 / 200.0;
  pos.orientation.t0 = 0.0;
  pos.orientation.dt = pos.csi.dt;
  const double period = 5.0;
  for (std::size_t k = 0; k < 1500; ++k) {
    const double t = pos.csi.time_at(k);
    const double u = std::fmod(t, period) / period;
    const double theta = (u < 0.5) ? (-2.0 + 8.0 * u) : (6.0 - 8.0 * u);
    pos.orientation.values.push_back(theta);
    pos.csi.values.push_back(phase_of(theta));
  }
  core::CsiProfile profile;
  profile.positions.push_back(std::move(pos));
  return profile;
}

wifi::CsiMeasurement measurement(double t, double phi) {
  wifi::CsiMeasurement m;
  m.t = t;
  m.h[0].assign(4, std::polar(1.0, phi));
  m.h[1].assign(4, {1.0, 0.0});
  return m;
}

imu::ImuSample imu_sample(double t, double yaw) {
  imu::ImuSample s;
  s.t = t;
  s.gyro_yaw_rad_s = yaw;
  s.accel_lateral_mps2 = 0.15 * yaw;
  return s;
}

class ReplayTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Per-test file name: ctest -jN runs cases of this fixture in
  // parallel processes, and a shared path races.
  std::string path_ =
      ::testing::TempDir() + "vihot_replay_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".vrlog";
};

TEST_F(ReplayTest, SyncRunReplaysBitIdentically) {
  {
    Recorder recorder({path_});
    ASSERT_TRUE(recorder.ok());
    TrackerEngine eng({0, nullptr, {}, &recorder});
    const auto profile = eng.add_profile(make_profile());
    const SessionId a = eng.create_session(profile);
    const SessionId b = eng.create_session(profile);
    for (double t = 0.0; t < 3.0; t += 0.004) {
      eng.push_csi(a, measurement(t, phase_of(-1.0 + 0.6 * t)));
      eng.push_csi(b, measurement(t, phase_of(1.2 - 0.5 * t)));
      if (std::fmod(t, 0.02) < 0.004) {
        eng.push_imu(a, imu_sample(t, 0.01));
        eng.push_imu(b, imu_sample(t, -0.02));
      }
    }
    for (int k = 0; k < 40; ++k) (void)eng.estimate_all(1.0 + 0.05 * k);
    ASSERT_TRUE(recorder.close());
  }
  const LoadedLog log = LoadedLog::load(path_);
  ASSERT_TRUE(log.ok()) << log.error();
  EXPECT_EQ(log.summary().session_starts, 2u);
  EXPECT_EQ(log.summary().ticks, 40u);
  EXPECT_TRUE(log.summary().has_footer);

  const ReplayResult result = replay(log);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.ticks_replayed, 40u);
  EXPECT_EQ(result.results_compared, 80u);
  EXPECT_TRUE(result.bit_identical())
      << format_report(path_, result);
}

TEST_F(ReplayTest, ConcurrentOfferRunReplaysBitIdentically) {
  // Producers race the tick loop through the async rings: the live
  // interleaving is nondeterministic, but the log captures the one that
  // happened and replay must reproduce its outputs exactly.
  {
    Recorder recorder({path_});
    ASSERT_TRUE(recorder.ok());
    engine::IngestConfig ingest;
    ingest.csi_capacity = 256;
    ingest.imu_capacity = 64;
    TrackerEngine eng({2, nullptr, ingest, &recorder});
    const auto profile = eng.add_profile(make_profile());
    const SessionId a = eng.create_session(profile);
    const SessionId b = eng.create_session(profile);

    std::thread producer([&] {
      for (double t = 0.0; t < 3.0; t += 0.004) {
        eng.offer_csi(a, measurement(t, phase_of(-1.0 + 0.6 * t)));
        eng.offer_csi(b, measurement(t, phase_of(1.2 - 0.5 * t)));
        if (std::fmod(t, 0.02) < 0.004) {
          eng.offer_imu(a, imu_sample(t, 0.01));
        }
      }
    });
    for (double t = 1.0; t < 3.0; t += 0.05) (void)eng.estimate_all(t);
    producer.join();
    (void)eng.estimate_all(3.0);  // apply any tail samples
    ASSERT_TRUE(recorder.close());
  }
  const LoadedLog log = LoadedLog::load(path_);
  ASSERT_TRUE(log.ok()) << log.error();
  const ReplayResult result = replay(log);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.bit_identical())
      << format_report(path_, result);
}

TEST_F(ReplayTest, SessionChurnAndCameraReplay) {
  {
    Recorder recorder({path_});
    ASSERT_TRUE(recorder.ok());
    TrackerEngine eng({0, nullptr, {}, &recorder});
    const auto profile = eng.add_profile(make_profile());
    const SessionId a = eng.create_session(profile);
    for (double t = 0.0; t < 1.5; t += 0.004) {
      eng.push_csi(a, measurement(t, phase_of(-1.0 + 0.6 * t)));
    }
    (void)eng.estimate_all(1.0);
    (void)eng.estimate_all(1.2);

    // Mid-run churn: a second session joins, the first one leaves.
    const SessionId b = eng.create_session(profile);
    for (double t = 1.2; t < 2.5; t += 0.004) {
      eng.push_csi(b, measurement(t, phase_of(0.5 * t)));
      eng.push_camera(b, {t, 0.3, true});
    }
    (void)eng.estimate_all(1.4);
    eng.destroy_session(a);
    (void)eng.estimate_all(2.0);
    (void)eng.estimate_all(2.4);
    ASSERT_TRUE(recorder.close());
  }
  const LoadedLog log = LoadedLog::load(path_);
  ASSERT_TRUE(log.ok()) << log.error();
  EXPECT_EQ(log.summary().session_starts, 2u);
  EXPECT_EQ(log.summary().session_ends, 1u);
  EXPECT_GT(log.summary().camera_frames, 0u);

  const ReplayResult result = replay(log);
  ASSERT_TRUE(result.ok) << result.error;
  // 2 + 2 + 1 solo ticks with one session, one tick with two.
  EXPECT_EQ(result.ticks_replayed, 5u);
  EXPECT_EQ(result.results_compared, 6u);
  EXPECT_TRUE(result.bit_identical())
      << format_report(path_, result);
}

TEST_F(ReplayTest, ThreadCountOverrideStaysBitIdentical) {
  {
    Recorder recorder({path_});
    ASSERT_TRUE(recorder.ok());
    TrackerEngine eng({0, nullptr, {}, &recorder});
    const auto profile = eng.add_profile(make_profile());
    const SessionId a = eng.create_session(profile);
    for (double t = 0.0; t < 2.0; t += 0.004) {
      eng.push_csi(a, measurement(t, phase_of(-1.0 + 0.8 * t)));
    }
    for (double t = 1.0; t < 2.0; t += 0.05) (void)eng.estimate_all(t);
    ASSERT_TRUE(recorder.close());
  }
  const LoadedLog log = LoadedLog::load(path_);
  ASSERT_TRUE(log.ok()) << log.error();
  // Recorded inline; replayed with a 3-worker pool. The matcher
  // equivalence invariant promises identical estimates regardless.
  ReplayOptions options;
  options.num_threads = 3;
  const ReplayResult result = replay(log, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.bit_identical())
      << format_report(path_, result);
}

TEST_F(ReplayTest, PerturbedConfigYieldsFirstDivergenceReport) {
  {
    Recorder recorder({path_});
    ASSERT_TRUE(recorder.ok());
    TrackerEngine eng({0, nullptr, {}, &recorder});
    const auto profile = eng.add_profile(make_profile());
    const SessionId a = eng.create_session(profile);
    for (double t = 0.0; t < 3.0; t += 0.004) {
      eng.push_csi(a, measurement(t, phase_of(-1.0 + 0.6 * t)));
    }
    for (double t = 1.0; t < 3.0; t += 0.05) (void)eng.estimate_all(t);
    ASSERT_TRUE(recorder.close());
  }
  const LoadedLog log = LoadedLog::load(path_);
  ASSERT_TRUE(log.ok()) << log.error();

  core::TrackerConfig perturbed;
  perturbed.matcher.window_s = 0.35;  // vs the recorded default
  ReplayOptions options;
  options.config_override = &perturbed;
  const ReplayResult result = replay(log, options);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.divergences.empty())
      << "a changed matcher window must alter at least one output";
  const Divergence& first = result.divergences.front();
  EXPECT_FALSE(first.field.empty());
  EXPECT_NE(first.recorded, first.replayed);
  const std::string report = format_report(path_, result);
  EXPECT_NE(report.find("first divergence"), std::string::npos);
  EXPECT_NE(report.find(first.field), std::string::npos);
}

TEST_F(ReplayTest, FlippedByteIsRejectedByCrc) {
  {
    Recorder recorder({path_});
    ASSERT_TRUE(recorder.ok());
    TrackerEngine eng({0, nullptr, {}, &recorder});
    const auto profile = eng.add_profile(make_profile());
    const SessionId a = eng.create_session(profile);
    for (double t = 0.0; t < 1.5; t += 0.004) {
      eng.push_csi(a, measurement(t, phase_of(0.4 * t)));
    }
    (void)eng.estimate_all(1.2);
    ASSERT_TRUE(recorder.close());
  }
  // Flip one byte deep in the body (past the file preamble).
  {
    std::fstream f(path_, std::ios::in | std::ios::out |
                              std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    ASSERT_GT(size, 2000);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  const LoadedLog log = LoadedLog::load(path_);
  EXPECT_FALSE(log.ok());
  EXPECT_NE(log.error().find("CRC mismatch"), std::string::npos)
      << log.error();
  const ReplayResult result = replay(log);
  EXPECT_FALSE(result.ok);
}

TEST_F(ReplayTest, RecorderStatsAreExported) {
  obs::Sink sink;
  {
    Recorder::Config rc;
    rc.path = path_;
    rc.sink = &sink;
    Recorder recorder(rc);
    ASSERT_TRUE(recorder.ok());
    TrackerEngine eng({0, nullptr, {}, &recorder});
    const auto profile = eng.add_profile(make_profile());
    const SessionId a = eng.create_session(profile);
    for (double t = 0.0; t < 1.5; t += 0.004) {
      eng.push_csi(a, measurement(t, phase_of(0.4 * t)));
    }
    (void)eng.estimate_all(1.2);
    ASSERT_TRUE(recorder.close());
    const Recorder::Totals totals = recorder.totals();
    EXPECT_EQ(totals.csi_frames, sink.replay.frames_recorded.value() - 1)
        << "frames_recorded counts feeds plus the tick chunk";
    EXPECT_EQ(totals.staging_drops, 0u);
    EXPECT_FALSE(totals.truncated);
  }
  EXPECT_GT(sink.replay.bytes_written.value(), 0u);
  EXPECT_GE(sink.replay.writer_flushes.value(), 1u);
  EXPECT_EQ(sink.replay.staging_drops.value(), 0u);
  // The registry names the family "replay.*".
  obs::Registry registry;
  sink.attach_to(registry);
  std::ostringstream os;
  registry.write_json(os);
  EXPECT_NE(os.str().find("replay.bytes_written"), std::string::npos);
}

TEST_F(ReplayTest, TruncatedLogRefusesBitExactReplay) {
  obs::Sink sink;
  {
    // A staging pair too small for even one CSI chunk: every feed drops
    // and the footer records the truncation.
    Recorder::Config rc;
    rc.path = path_;
    rc.staging_bytes = 64;
    rc.sink = &sink;
    Recorder recorder(rc);
    ASSERT_TRUE(recorder.ok());
    TrackerEngine eng({0, nullptr, {}, &recorder});
    const auto profile = eng.add_profile(make_profile());
    const SessionId a = eng.create_session(profile);
    for (double t = 0.0; t < 1.0; t += 0.004) {
      eng.push_csi(a, measurement(t, phase_of(0.4 * t)));
    }
    (void)eng.estimate_all(0.9);
    ASSERT_TRUE(recorder.close());
    EXPECT_TRUE(recorder.totals().truncated);
    EXPECT_GT(recorder.totals().staging_drops, 0u);
  }
  EXPECT_GT(sink.replay.staging_drops.value(), 0u);
  const LoadedLog log = LoadedLog::load(path_);
  ASSERT_TRUE(log.ok()) << log.error();
  EXPECT_TRUE(log.summary().truncated);
  const ReplayResult result = replay(log);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("truncated"), std::string::npos);
}

TEST_F(ReplayTest, MissingFileAndGarbageFileFailCleanly) {
  EXPECT_FALSE(LoadedLog::load("/nonexistent/x.vrlog").ok());
  {
    std::ofstream os(path_, std::ios::binary);
    os << "this is not a vrlog at all";
  }
  const LoadedLog log = LoadedLog::load(path_);
  EXPECT_FALSE(log.ok());
  EXPECT_NE(log.error().find("magic"), std::string::npos) << log.error();
}

}  // namespace
}  // namespace vihot::replay
