// Text-capture import (replay/import.h): a capture tracked into a .vrlog
// must replay bit-identically and match a plain ViHotTracker loop tick
// for tick, and the calibration profile must come back from its .vrlog
// as the same doubles. tests/cli/hostile_trace_test.sh covers the inputs
// an import rejects.
#include "replay/import.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "replay/replayer.h"
#include "replay/vrlog.h"
#include "sim/drive_sim.h"
#include "sim/experiment.h"
#include "tests/core/test_helpers.h"
#include "tests/same_bits.h"
#include "wifi/link.h"

namespace vihot::replay {
namespace {

std::vector<unsigned char> profile_bytes(const core::CsiProfile& profile) {
  std::vector<unsigned char> out;
  encode_profile(out, profile);
  return out;
}

/// A .vrlog holding a header and one kProfile chunk per payload.
void write_log(const std::string& path,
               const std::vector<std::vector<unsigned char>>& profiles) {
  std::vector<unsigned char> bytes(std::begin(kMagic), std::end(kMagic));
  put_u32(bytes, kFormatVersion);
  std::vector<unsigned char> header;
  encode_engine_descriptor(header, engine::EngineDescriptor{});
  append_chunk(bytes, ChunkType::kHeader, header.data(), header.size());
  for (const std::vector<unsigned char>& payload : profiles) {
    append_chunk(bytes, ChunkType::kProfile, payload.data(), payload.size());
  }
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

/// The shape of a `vihot_sim --record` calibration log, minus the drive.
void write_profile_log(const std::string& path,
                       const std::vector<core::CsiProfile>& profiles) {
  std::vector<std::vector<unsigned char>> payloads;
  for (const core::CsiProfile& p : profiles) {
    payloads.push_back(profile_bytes(p));
  }
  write_log(path, payloads);
}

struct Capture {
  std::vector<wifi::CsiMeasurement> csi;
  std::vector<imu::ImuSample> imu;
};

/// A simulated drive of the fast test scenario: the driver's CSI as the
/// link captures it, plus the phone IMU.
Capture synthesize_drive(double seconds) {
  const sim::ScenarioConfig& config = core::testing::fast_scenario();
  util::Rng rng(config.seed ^ 0xabcdef1234567ULL);
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
  Capture c;
  c.csi = link.capture(0.0, seconds, [&](double t) {
    return session.cabin_state_at(t);
  });
  imu::PhoneImu phone(imu::PhoneImu::Config{}, rng.fork("imu"));
  c.imu = phone.capture(0.0, seconds, session.car_dynamics(),
                        session.steering());
  return c;
}

/// Writes the capture as <prefix>.csi / <prefix>.imu text, every double
/// at max_digits10 so it parses back to the same bits.
void write_capture(const std::string& prefix, const Capture& c) {
  std::ofstream csi(prefix + ".csi");
  csi.precision(std::numeric_limits<double>::max_digits10);
  csi << "# vihot-csi v1 antennas=2 subcarriers="
      << c.csi.front().num_subcarriers() << '\n';
  for (const wifi::CsiMeasurement& m : c.csi) {
    csi << m.t;
    for (const auto& row : m.h) {
      for (const auto& h : row) csi << ',' << h.real() << ',' << h.imag();
    }
    csi << '\n';
  }
  std::ofstream imu(prefix + ".imu");
  imu.precision(std::numeric_limits<double>::max_digits10);
  imu << "# vihot-imu v1\n";
  for (const imu::ImuSample& s : c.imu) {
    imu << s.t << ',' << s.gyro_yaw_rad_s << ',' << s.accel_lateral_mps2
        << '\n';
  }
}

/// Every result the log's kTickEnd chunks hold, in tick order.
std::vector<core::TrackResult> recorded_results(const LoadedLog& log) {
  std::vector<core::TrackResult> out;
  for (const ChunkView& chunk : log.chunks()) {
    if (chunk.type != ChunkType::kTickEnd) continue;
    Cursor in(chunk.payload, chunk.size);
    (void)in.get_f64();  // t_now
    const std::uint64_t n = in.get_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)in.get_u64();  // session id
      core::TrackResult r;
      EXPECT_TRUE(decode_track_result(in, &r));
      out.push_back(r);
    }
  }
  return out;
}

class ImportTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* ext : {".csi", ".imu", ".vrlog", ".calib.vrlog"}) {
      std::remove((base_ + ext).c_str());
    }
  }
  // Per-test names: ctest -jN runs cases in parallel processes.
  std::string base_ =
      ::testing::TempDir() + "vihot_import_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string out_ = base_ + ".vrlog";
  std::string calib_ = base_ + ".calib.vrlog";
};

TEST_F(ImportTest, ImportedDriveReplaysBitIdenticallyAndMatchesTheTracker) {
  const core::CsiProfile& profile = core::testing::simulated_profile();
  const Capture drive = synthesize_drive(3.0);
  ASSERT_GT(drive.csi.size(), 300u);
  write_capture(base_, drive);
  write_profile_log(calib_, {profile});

  const ImportResult imported = import_capture(base_, out_, calib_);
  ASSERT_TRUE(imported.ok()) << imported.error;
  EXPECT_GT(imported.ticks, 20u);

  // (a) The log replays bit-identically.
  const LoadedLog log = LoadedLog::load(out_);
  ASSERT_TRUE(log.ok()) << log.error();
  const ReplayResult replayed = replay(log);
  EXPECT_TRUE(replayed.bit_identical()) << format_report(out_, replayed);
  EXPECT_EQ(replayed.ticks_replayed, imported.ticks);

  // (b) Each tick equals a plain tracker push/estimate loop over the
  // in-memory frames on the import schedule, bit for bit.
  core::ViHotTracker tracker(profile, core::TrackerConfig{});
  std::vector<core::TrackResult> direct;
  std::size_t ci = 0;
  std::size_t ii = 0;
  for (double t = kImportFirstTickS; t < drive.csi.back().t;
       t += kImportTickS) {
    while (ci < drive.csi.size() && drive.csi[ci].t <= t) {
      tracker.push_csi(drive.csi[ci++]);
    }
    while (ii < drive.imu.size() && drive.imu[ii].t <= t) {
      tracker.push_imu(drive.imu[ii++]);
    }
    direct.push_back(tracker.estimate(t));
  }
  EXPECT_EQ(imported.csi_frames, ci);
  EXPECT_EQ(imported.imu_samples, ii);
  const std::vector<core::TrackResult> recorded = recorded_results(log);
  ASSERT_EQ(recorded.size(), direct.size());
  std::size_t valid = 0;
  for (std::size_t k = 0; k < direct.size(); ++k) {
    std::vector<unsigned char> want;
    std::vector<unsigned char> got;
    encode_track_result(want, direct[k]);
    encode_track_result(got, recorded[k]);
    EXPECT_EQ(got, want) << "tick " << k << " at t=" << direct[k].t;
    if (direct[k].valid) ++valid;
  }
  EXPECT_GT(valid, 0u);
}

// Profile persistence: a calibration is saved as the kProfile chunk of a
// .vrlog and read back by read_log_profile.
class ProfileIoTest : public ImportTest {
 protected:
  std::optional<core::CsiProfile> round_trip(const core::CsiProfile& p) {
    write_profile_log(calib_, {p});
    return read_log_profile(calib_, &error_);
  }
  std::string error_;
};

TEST_F(ProfileIoTest, RoundTripSynthetic) {
  const core::CsiProfile original = core::testing::synthetic_profile(4);
  const auto loaded = round_trip(original);
  ASSERT_TRUE(loaded.has_value()) << error_;
  ASSERT_EQ(loaded->size(), original.size());
  EXPECT_EQ(profile_bytes(*loaded), profile_bytes(original));
}

TEST_F(ProfileIoTest, RoundTripSimulatedProfileTracks) {
  // A reloaded profile drives the tracker identically to the original
  // exactly when every double is the same: compare the full encoding.
  const core::CsiProfile& original = core::testing::simulated_profile();
  const auto loaded = round_trip(original);
  ASSERT_TRUE(loaded.has_value()) << error_;
  EXPECT_EQ(profile_bytes(*loaded), profile_bytes(original));
}

TEST_F(ProfileIoTest, MissingFile) {
  EXPECT_FALSE(read_log_profile("/nonexistent/calib.vrlog", &error_));
  EXPECT_NE(error_.find("/nonexistent/calib.vrlog"), std::string::npos);
}

TEST_F(ProfileIoTest, RejectsWrongMagic) {
  std::ofstream(calib_) << "# vihot-profile v1 rate=200 reference=0\n";
  EXPECT_FALSE(read_log_profile(calib_, &error_).has_value());
}

TEST_F(ProfileIoTest, RejectsTruncatedSamples) {
  write_profile_log(calib_, {core::testing::synthetic_profile(1)});
  std::ifstream in(calib_, std::ios::binary);
  const std::string all((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(calib_, std::ios::binary | std::ios::trunc)
      << all.substr(0, all.size() / 2);
  EXPECT_FALSE(read_log_profile(calib_, &error_).has_value());
}

TEST_F(ProfileIoTest, EmptyProfileRoundTrips) {
  const auto loaded = round_trip(core::CsiProfile{});
  ASSERT_TRUE(loaded.has_value()) << error_;
  EXPECT_TRUE(loaded->empty());
}

TEST_F(ProfileIoTest, RoundTripIsBitExact) {
  // Awkward doubles (denormals, huge magnitudes, negative zero) come
  // back as the same bit patterns.
  const double awkward[] = {0.1,     1.0 / 3.0, 3e-310, -3e-310,
                            1.7e308, -0.0,      5e-324, 2.2250738585072014e-308};
  core::CsiProfile original;
  original.sample_rate_hz = 1.0 / 3.0;
  original.reference_phase = -3e-310;
  core::PositionProfile pos;
  pos.fingerprint_phase = 5e-324;
  pos.csi.t0 = 0.1;
  pos.csi.dt = 1.0 / 200.0;
  pos.orientation.t0 = pos.csi.t0;
  pos.orientation.dt = pos.csi.dt;
  for (const double v : awkward) {
    pos.csi.values.push_back(v);
    pos.orientation.values.push_back(-v);
  }
  original.positions.push_back(pos);

  const auto loaded = round_trip(original);
  ASSERT_TRUE(loaded.has_value()) << error_;
  ASSERT_EQ(loaded->positions.size(), 1u);
  EXPECT_SAME_BITS(loaded->sample_rate_hz, original.sample_rate_hz);
  EXPECT_SAME_BITS(loaded->reference_phase, original.reference_phase);
  EXPECT_SAME_BITS(loaded->positions[0].fingerprint_phase,
                   pos.fingerprint_phase);
  ASSERT_EQ(loaded->positions[0].csi.size(), pos.csi.size());
  for (std::size_t k = 0; k < pos.csi.size(); ++k) {
    EXPECT_SAME_BITS(loaded->positions[0].csi.values[k], pos.csi.values[k]);
    EXPECT_SAME_BITS(loaded->positions[0].orientation.values[k],
                     pos.orientation.values[k]);
  }
}

TEST_F(ProfileIoTest, RejectsGarbageHeaderValues) {
  // Non-finite profile-level values, and every shape the hostile set
  // breaks (dt below kMinProfileDt included), fail well_formed().
  core::CsiProfile bad_rate = core::testing::synthetic_profile(1);
  bad_rate.sample_rate_hz = std::numeric_limits<double>::infinity();
  core::CsiProfile bad_reference = core::testing::synthetic_profile(1);
  bad_reference.reference_phase = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(round_trip(bad_rate).has_value());
  EXPECT_FALSE(round_trip(bad_reference).has_value());
  for (const auto& [name, profile] : core::testing::hostile_profiles()) {
    EXPECT_FALSE(round_trip(profile).has_value()) << name;
    EXPECT_NE(error_.find("malformed profile chunk"), std::string::npos)
        << name << ": " << error_;
  }
}

TEST_F(ProfileIoTest, RejectsWrongShapeBody) {
  // A profile chunk whose payload is cut short is malformed even though
  // its CRC is intact.
  const std::vector<unsigned char> payload =
      profile_bytes(core::testing::synthetic_profile(1));
  for (const std::size_t keep : {payload.size() - 4, payload.size() / 2}) {
    write_log(calib_, {std::vector<unsigned char>(
                          payload.begin(),
                          payload.begin() + static_cast<long>(keep))});
    EXPECT_FALSE(read_log_profile(calib_, &error_).has_value()) << keep;
  }
}

TEST_F(ProfileIoTest, RejectsPositionCountMismatch) {
  // The payload declares two positions but holds one.
  std::vector<unsigned char> payload =
      profile_bytes(core::testing::synthetic_profile(1));
  payload[16] = 2;  // low byte of the u64 count after rate + reference
  write_log(calib_, {payload});
  EXPECT_FALSE(read_log_profile(calib_, &error_).has_value());
}

}  // namespace
}  // namespace vihot::replay
