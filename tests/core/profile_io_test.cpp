#include "core/profile_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "tests/core/test_helpers.h"

namespace vihot::core {
namespace {

class ProfileIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Per-test file name: ctest -jN runs cases of this fixture in
  // parallel processes, and a shared path races.
  std::string path_ =
      ::testing::TempDir() + "vihot_profile_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt";
};

TEST_F(ProfileIoTest, RoundTripSynthetic) {
  const CsiProfile original = testing::synthetic_profile(4);
  ASSERT_TRUE(save_profile(path_, original));
  const auto loaded = load_profile(path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size());
  EXPECT_DOUBLE_EQ(loaded->sample_rate_hz, original.sample_rate_hz);
  EXPECT_DOUBLE_EQ(loaded->reference_phase, original.reference_phase);
  for (std::size_t i = 0; i < original.size(); ++i) {
    const PositionProfile& a = original.positions[i];
    const PositionProfile& b = loaded->positions[i];
    EXPECT_EQ(a.position_index, b.position_index);
    EXPECT_NEAR(a.fingerprint_phase, b.fingerprint_phase, 1e-9);
    ASSERT_EQ(a.csi.size(), b.csi.size());
    for (std::size_t k = 0; k < a.csi.size(); k += 97) {
      EXPECT_NEAR(a.csi.values[k], b.csi.values[k], 1e-9);
      EXPECT_NEAR(a.orientation.values[k], b.orientation.values[k], 1e-9);
    }
  }
}

TEST_F(ProfileIoTest, RoundTripSimulatedProfileTracks) {
  // The acid test: a profile saved and reloaded must drive the tracker
  // identically to the original.
  const CsiProfile& original = testing::simulated_profile();
  ASSERT_TRUE(save_profile(path_, original));
  const auto loaded = load_profile(path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size());
  // Relative phases agree to text-format precision everywhere.
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(original.positions[i].csi.values[500],
                loaded->positions[i].csi.values[500], 1e-9);
  }
}

TEST_F(ProfileIoTest, MissingFile) {
  EXPECT_FALSE(load_profile("/nonexistent/profile.txt").has_value());
}

TEST_F(ProfileIoTest, RejectsWrongMagic) {
  std::ofstream os(path_);
  os << "# not a profile\n";
  os.close();
  EXPECT_FALSE(load_profile(path_).has_value());
}

TEST_F(ProfileIoTest, RejectsTruncatedSamples) {
  const CsiProfile original = testing::synthetic_profile(1);
  ASSERT_TRUE(save_profile(path_, original));
  // Chop the file in half.
  std::ifstream in(path_);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::trunc);
  out << all.substr(0, all.size() / 2);
  out.close();
  EXPECT_FALSE(load_profile(path_).has_value());
}

TEST_F(ProfileIoTest, EmptyProfileRoundTrips) {
  ASSERT_TRUE(save_profile(path_, CsiProfile{}));
  const auto loaded = load_profile(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(ProfileIoTest, RoundTripIsBitExact) {
  // max_digits10 serialization: awkward doubles (denormals, huge
  // magnitudes, negative zero) must reload as the same bit patterns,
  // not 12-digit approximations.
  const double awkward[] = {0.1,     1.0 / 3.0, 3e-310, -3e-310,
                            1.7e308, -0.0,      5e-324, 2.2250738585072014e-308};
  CsiProfile original;
  original.sample_rate_hz = 1.0 / 3.0;
  original.reference_phase = -3e-310;
  PositionProfile pos;
  pos.position_index = 0;
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

  ASSERT_TRUE(save_profile(path_, original));
  const auto loaded = load_profile(path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->positions.size(), 1u);
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  EXPECT_EQ(bits(loaded->sample_rate_hz), bits(original.sample_rate_hz));
  EXPECT_EQ(bits(loaded->reference_phase), bits(original.reference_phase));
  EXPECT_EQ(bits(loaded->positions[0].fingerprint_phase),
            bits(pos.fingerprint_phase));
  ASSERT_EQ(loaded->positions[0].csi.size(), pos.csi.size());
  for (std::size_t k = 0; k < pos.csi.size(); ++k) {
    EXPECT_EQ(bits(loaded->positions[0].csi.values[k]),
              bits(pos.csi.values[k]))
        << "csi sample " << k;
    EXPECT_EQ(bits(loaded->positions[0].orientation.values[k]),
              bits(pos.orientation.values[k]))
        << "orientation sample " << k;
  }
}

TEST_F(ProfileIoTest, RejectsGarbageHeaderValues) {
  // std::stod would have thrown on these; the loader must return
  // nullopt instead.
  const char* bad_headers[] = {
      "# vihot-profile v1 rate=abc reference=0 positions=0\n",
      "# vihot-profile v1 rate= reference=0 positions=0\n",
      "# vihot-profile v1 rate=200 reference=nope positions=0\n",
      "# vihot-profile v1 rate=200 reference=0 positions=\n",
      "# vihot-profile v1 rate=200 reference=0\n",
      "# vihot-profile v1 rate=200 reference=0 positions=99999999999\n",
      // Parse, but are not finite (CsiProfile::well_formed).
      "# vihot-profile v1 rate=inf reference=0 positions=0\n",
      "# vihot-profile v1 rate=200 reference=nan positions=0\n",
  };
  for (const char* header : bad_headers) {
    {
      std::ofstream os(path_, std::ios::trunc);
      os << header;
    }
    EXPECT_FALSE(load_profile(path_).has_value()) << header;
  }
}

TEST_F(ProfileIoTest, RejectsWrongShapeBody) {
  const char* bad_bodies[] = {
      // Sample row where a position line should be.
      "0.5,0.25\n",
      // Position line whose declared sample count is absurd (must not
      // reserve gigabytes).
      "position 0 fingerprint 0.1 t0 0 dt 0.005 samples 99999999999\n",
      // Malformed position line (missing keywords).
      "position 0 0.1 0 0.005 4\n",
      // Declared one sample but the row is not "phi,theta".
      "position 0 fingerprint 0.1 t0 0 dt 0.005 samples 1\n0.5;0.25\n",
      // Declared one sample, row missing entirely.
      "position 0 fingerprint 0.1 t0 0 dt 0.005 samples 1\n",
      // A grid step dt <= 0: the tracker sizes its query as window / dt
      // (CsiProfile::well_formed).
      "position 0 fingerprint 0.1 t0 0 dt -0.005 samples 1\n0.5,0.25\n",
      "position 0 fingerprint 0.1 t0 0 dt 0 samples 1\n0.5,0.25\n",
  };
  for (const char* body : bad_bodies) {
    {
      std::ofstream os(path_, std::ios::trunc);
      os << "# vihot-profile v1 rate=200 reference=0 positions=1\n" << body;
    }
    EXPECT_FALSE(load_profile(path_).has_value()) << body;
  }
}

TEST_F(ProfileIoTest, RejectsPositionCountMismatch) {
  {
    std::ofstream os(path_, std::ios::trunc);
    os << "# vihot-profile v1 rate=200 reference=0 positions=2\n"
       << "position 0 fingerprint 0.1 t0 0 dt 0.005 samples 1\n"
       << "0.5,0.25\n";
  }
  EXPECT_FALSE(load_profile(path_).has_value());
}

}  // namespace
}  // namespace vihot::core
