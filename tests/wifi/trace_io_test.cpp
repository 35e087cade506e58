// Capture-file readers over literal text: what a converted real capture
// would hold, including 17-digit (max_digits10) decimals that must parse
// to the exact doubles they name.
#include "wifi/trace_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/rng.h"

namespace vihot::wifi {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// 17-digit decimal texts and the IEEE-754 doubles they denote.
struct Decimal {
  const char* text;
  std::uint64_t bits;
};
constexpr Decimal kAwkward[] = {
    {"0.10000000000000001", 0x3fb999999999999aULL},
    {"0.33333333333333331", 0x3fd5555555555555ULL},
    {"3.0000000000000001e-310", 0x00003739a252b281ULL},   // subnormal
    {"-3.0000000000000001e-310", 0x80003739a252b281ULL},
    {"4.9406564584124654e-324", 0x0000000000000001ULL},   // smallest
    {"1.7e+308", 0x7fee42d130773b76ULL},
    {"-1.7e+308", 0xffee42d130773b76ULL},
    {"-0", 0x8000000000000000ULL},
    {"2.2250738585072014e-308", 0x0010000000000000ULL},   // smallest normal
    {"1.0000000000000002", 0x3ff0000000000001ULL},
};

class TraceIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
  }
  void write(const std::string& text) {
    std::ofstream(path_, std::ios::trunc) << text;
  }
  // Per-test file name: ctest -jN runs cases of this fixture in
  // parallel processes, and a shared path races.
  std::string path_ =
      ::testing::TempDir() + "vihot_trace_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(TraceIoTest, CsiRoundTrip) {
  // Two antennas x two subcarriers: t, then (re, im) per subcarrier,
  // antenna 0 first. Blank lines are skipped.
  write("# vihot-csi v1 antennas=2 subcarriers=2\n"
        "0.001,1,2,3,4,5,6,7,8\n"
        "\n"
        "0.0065,-1.5,0.25,0,-2e-3,1e3,-7,8.5,9\n");
  const auto loaded = read_csi_trace(path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  const CsiMeasurement& a = (*loaded)[0];
  EXPECT_EQ(a.t, 0.001);
  ASSERT_EQ(a.num_subcarriers(), 2u);
  EXPECT_EQ(a.h[0][0], std::complex<double>(1, 2));
  EXPECT_EQ(a.h[0][1], std::complex<double>(3, 4));
  EXPECT_EQ(a.h[1][0], std::complex<double>(5, 6));
  EXPECT_EQ(a.h[1][1], std::complex<double>(7, 8));
  const CsiMeasurement& b = (*loaded)[1];
  EXPECT_EQ(b.t, 0.0065);
  EXPECT_EQ(b.h[0][0], std::complex<double>(-1.5, 0.25));
  EXPECT_EQ(b.h[0][1], std::complex<double>(0, -2e-3));
  EXPECT_EQ(b.h[1][0], std::complex<double>(1e3, -7));
  EXPECT_EQ(b.h[1][1], std::complex<double>(8.5, 9));
}

TEST_F(TraceIoTest, CsiMissingFile) {
  EXPECT_FALSE(read_csi_trace("/nonexistent/dir/foo.csv").has_value());
}

TEST_F(TraceIoTest, CsiRejectsBadHeader) {
  write("not a vihot trace\n1.0,0.5,0.5\n");
  EXPECT_FALSE(read_csi_trace(path_).has_value());
}

TEST_F(TraceIoTest, CsiRejectsTruncatedRow) {
  write("# vihot-csi v1 antennas=2 subcarriers=1\n"
        "0.5,1,0,1,0\n"
        "1.23,0.5,0.5\n");
  EXPECT_FALSE(read_csi_trace(path_).has_value());
}

TEST_F(TraceIoTest, CsiRejectsGarbageSubcarrierCount) {
  // Regression: a non-numeric count fed std::stoul, which throws instead
  // of returning nullopt.
  write("# vihot-csi v1 antennas=2 subcarriers=garbage\n1.0,0.5,0.5\n");
  EXPECT_FALSE(read_csi_trace(path_).has_value());
}

TEST_F(TraceIoTest, CsiRejectsZeroSubcarriers) {
  // Frames without subcarriers carry no phase: the sanitizer would read
  // each as 0.0 and the tracker would run on them as if they held data.
  write("# vihot-csi v1 antennas=2 subcarriers=0\n0.5\n1.0\n");
  EXPECT_FALSE(read_csi_trace(path_).has_value());
}

TEST_F(TraceIoTest, CsiRejectsMissingOrWrongAntennaCount) {
  write("# vihot-csi v1 antennas=3 subcarriers=4\n");
  EXPECT_FALSE(read_csi_trace(path_).has_value());
  write("# vihot-csi v1 subcarriers=4\n");
  EXPECT_FALSE(read_csi_trace(path_).has_value());
  write("# vihot-csi v1 antennas=x subcarriers=4\n");
  EXPECT_FALSE(read_csi_trace(path_).has_value());
}

TEST_F(TraceIoTest, CsiRejectsAbsurdSubcarrierCount) {
  // A corrupt count must not drive a runaway reserve (or overflow).
  write("# vihot-csi v1 antennas=2 subcarriers=4000000000\n");
  EXPECT_FALSE(read_csi_trace(path_).has_value());
  write("# vihot-csi v1 antennas=2 subcarriers=99999999999999999999999\n");
  EXPECT_FALSE(read_csi_trace(path_).has_value());
}

TEST_F(TraceIoTest, CsiRejectsRowWiderThanHeader) {
  // A row carrying more values than the declared shape means header and
  // body disagree; silently truncating the frame would corrupt phases.
  write("# vihot-csi v1 antennas=2 subcarriers=1\n"
        "0.5,1.0,0.0,1.0,0.0,9.0,9.0\n");
  EXPECT_FALSE(read_csi_trace(path_).has_value());
}

TEST_F(TraceIoTest, CsiRoundTripIsBitExactOverAwkwardDoubles) {
  // Every 17-digit decimal parses to exactly the double it names:
  // denormals, near-overflow magnitudes and negative zero included, in
  // every field of a frame.
  std::string text = "# vihot-csi v1 antennas=2 subcarriers=1\n";
  for (const Decimal& d : kAwkward) {
    text += std::string(d.text) + ',' + d.text + ",-0," + d.text + ",1\n";
  }
  write(text);
  const auto loaded = read_csi_trace(path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), std::size(kAwkward));
  for (std::size_t i = 0; i < std::size(kAwkward); ++i) {
    const CsiMeasurement& m = (*loaded)[i];
    const std::uint64_t want = kAwkward[i].bits;
    EXPECT_EQ(bits(m.t), want) << kAwkward[i].text;
    EXPECT_EQ(bits(m.h[0][0].real()), want) << kAwkward[i].text;
    EXPECT_EQ(bits(m.h[0][0].imag()), bits(-0.0));
    EXPECT_EQ(bits(m.h[1][0].real()), want) << kAwkward[i].text;
  }

  // Seeded property: any double printed as %.17g reads back the same,
  // across wildly different exponents.
  util::Rng rng(99);
  std::vector<double> values;
  text = "# vihot-csi v1 antennas=2 subcarriers=1\n";
  for (int i = 0; i < 64; ++i) {
    const double v = rng.uniform(-1.0, 1.0) *
                     std::pow(10.0, rng.uniform(-300.0, 300.0));
    values.push_back(v);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    text += std::to_string(i) + ',' + buf + ",0,1,0\n";
  }
  write(text);
  const auto random = read_csi_trace(path_);
  ASSERT_TRUE(random.has_value());
  ASSERT_EQ(random->size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(bits((*random)[i].h[0][0].real()), bits(values[i]))
        << "row " << i;
  }
}

TEST_F(TraceIoTest, ImuRoundTripIsBitExact) {
  std::string text = "# vihot-imu v1\n";
  for (const Decimal& d : kAwkward) {
    text += std::string("0.5,") + d.text + ',' + d.text + '\n';
  }
  write(text);
  const auto loaded = read_imu_trace(path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), std::size(kAwkward));
  for (std::size_t i = 0; i < std::size(kAwkward); ++i) {
    EXPECT_EQ(bits((*loaded)[i].gyro_yaw_rad_s), kAwkward[i].bits)
        << kAwkward[i].text;
    EXPECT_EQ(bits((*loaded)[i].accel_lateral_mps2), kAwkward[i].bits)
        << kAwkward[i].text;
  }
}

TEST_F(TraceIoTest, EmptyCaptureRoundTrips) {
  // A well-formed header with no rows is an empty capture, not an error;
  // `vihot_replay import` rejects it as holding no frames.
  write("# vihot-csi v1 antennas=2 subcarriers=30\n");
  const auto loaded = read_csi_trace(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(TraceIoTest, ImuRoundTrip) {
  write("# vihot-imu v1\n"
        "0,0.125,-0.5\n"
        "\n"
        "0.01,-2.5e-3,0.75\n");
  const auto loaded = read_imu_trace(path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].t, 0.0);
  EXPECT_EQ((*loaded)[0].gyro_yaw_rad_s, 0.125);
  EXPECT_EQ((*loaded)[0].accel_lateral_mps2, -0.5);
  EXPECT_EQ((*loaded)[1].t, 0.01);
  EXPECT_EQ((*loaded)[1].gyro_yaw_rad_s, -2.5e-3);
  EXPECT_EQ((*loaded)[1].accel_lateral_mps2, 0.75);
}

TEST_F(TraceIoTest, ImuRejectsWrongMagic) {
  write("# vihot-csi v1 antennas=2 subcarriers=30\n");
  EXPECT_FALSE(read_imu_trace(path_).has_value());
}

}  // namespace
}  // namespace vihot::wifi
