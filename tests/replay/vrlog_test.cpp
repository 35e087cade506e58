// Format-layer tests of the .vrlog chunked binary codec: CRC, framing,
// scanner error handling, and bit-exact structured round trips.
#include "replay/vrlog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tests/core/test_helpers.h"

namespace vihot::replay {
namespace {

std::vector<unsigned char> file_preamble() {
  std::vector<unsigned char> out(kMagic, kMagic + sizeof(kMagic));
  put_u32(out, kFormatVersion);
  return out;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, 8);
  return b;
}

TEST(Crc32, MatchesKnownVector) {
  // The canonical IEEE 802.3 check value: crc32("123456789").
  const unsigned char data[] = {'1', '2', '3', '4', '5',
                                '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data, sizeof(data)), 0xCBF43926u);
}

TEST(Crc32, SeedChainsPartialComputations) {
  const unsigned char data[] = {'a', 'b', 'c', 'd', 'e', 'f'};
  const std::uint32_t whole = crc32(data, 6);
  const std::uint32_t chained = crc32(data + 3, 3, crc32(data, 3));
  EXPECT_EQ(whole, chained);
}

TEST(Primitives, RoundTripThroughCursor) {
  std::vector<unsigned char> buf;
  put_u8(buf, 0xAB);
  put_u32(buf, 0xDEADBEEFu);
  put_u64(buf, 0x0123456789ABCDEFull);
  put_f64(buf, -0.0);
  put_f64(buf, std::numeric_limits<double>::denorm_min());
  put_f64(buf, std::numeric_limits<double>::quiet_NaN());

  Cursor in(buf.data(), buf.size());
  EXPECT_EQ(in.get_u8(), 0xAB);
  EXPECT_EQ(in.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.get_u64(), 0x0123456789ABCDEFull);
  // Bit-exact: -0.0 keeps its sign bit, denormals and NaN payloads
  // survive untouched.
  EXPECT_EQ(bits_of(in.get_f64()), bits_of(-0.0));
  EXPECT_EQ(bits_of(in.get_f64()),
            bits_of(std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(bits_of(in.get_f64()),
            bits_of(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(in.exhausted());
}

TEST(Cursor, FailsSoftPastTheEnd) {
  const unsigned char byte = 7;
  Cursor in(&byte, 1);
  EXPECT_EQ(in.get_u8(), 7);
  EXPECT_EQ(in.get_u64(), 0u);  // past the end: zero, flag set
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.exhausted());
  EXPECT_EQ(in.get_u32(), 0u);  // stays failed
}

TEST(Cursor, SkipStepsOverFieldsAndFailsLikeARead) {
  std::vector<unsigned char> buf;
  put_u64(buf, 1);
  put_u64(buf, 2);
  put_u8(buf, 9);
  Cursor in(buf.data(), buf.size());
  in.skip(8);
  EXPECT_EQ(in.get_u64(), 2u);
  EXPECT_EQ(in.remaining(), 1u);
  in.skip(8);  // one byte left: fails, reads nothing more
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.get_u8(), 0u);
}

TEST(Framing, AppendAndScanOneChunk) {
  std::vector<unsigned char> log = file_preamble();
  const unsigned char payload[] = {1, 2, 3, 4, 5};
  append_chunk(log, ChunkType::kCsi, payload, sizeof(payload));

  ChunkScanner scanner(log.data(), log.size());
  ASSERT_TRUE(scanner.valid_header());
  EXPECT_EQ(scanner.format_version(), kFormatVersion);
  const auto chunk = scanner.next();
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->type, ChunkType::kCsi);
  ASSERT_EQ(chunk->size, sizeof(payload));
  EXPECT_EQ(std::memcmp(chunk->payload, payload, sizeof(payload)), 0);
  EXPECT_FALSE(scanner.next().has_value());
  EXPECT_FALSE(scanner.failed());
}

TEST(Framing, BeginFinishMatchesAppend) {
  std::vector<unsigned char> a = file_preamble();
  std::vector<unsigned char> b = a;
  const unsigned char payload[] = {9, 8, 7};
  append_chunk(a, ChunkType::kImu, payload, sizeof(payload));
  const std::size_t frame = begin_chunk(b);
  put_u8(b, 9);
  put_u8(b, 8);
  put_u8(b, 7);
  finish_chunk(b, frame, ChunkType::kImu);
  EXPECT_EQ(a, b);
}

TEST(Framing, EveryFlippedByteIsDetected) {
  std::vector<unsigned char> log = file_preamble();
  const unsigned char payload[] = {42, 43, 44, 45};
  append_chunk(log, ChunkType::kTickBegin, payload, sizeof(payload));

  // Flip each byte of the chunk (frame, payload and CRC) in turn: the
  // scanner must reject every single-byte corruption.
  for (std::size_t i = sizeof(kMagic) + 4; i < log.size(); ++i) {
    std::vector<unsigned char> bad = log;
    bad[i] ^= 0x01;
    ChunkScanner scanner(bad.data(), bad.size());
    ASSERT_TRUE(scanner.valid_header());
    const auto chunk = scanner.next();
    // A length-field flip may also surface as a truncation error; either
    // way the chunk must not parse cleanly.
    EXPECT_FALSE(chunk.has_value()) << "flipped byte " << i;
    EXPECT_TRUE(scanner.failed()) << "flipped byte " << i;
  }
}

TEST(Framing, TruncatedTailIsAnError) {
  std::vector<unsigned char> log = file_preamble();
  const unsigned char payload[] = {1, 2, 3};
  append_chunk(log, ChunkType::kCamera, payload, sizeof(payload));
  for (std::size_t cut = 1; cut < chunk_overhead() + sizeof(payload);
       ++cut) {
    std::vector<unsigned char> bad(
        log.begin(), log.end() - static_cast<std::ptrdiff_t>(cut));
    ChunkScanner scanner(bad.data(), bad.size());
    ASSERT_TRUE(scanner.valid_header());
    EXPECT_FALSE(scanner.next().has_value());
    EXPECT_TRUE(scanner.failed()) << "cut " << cut;
  }
}

TEST(Framing, BadMagicAndVersionAreRejected) {
  std::vector<unsigned char> log = file_preamble();
  log[0] ^= 0xFF;
  EXPECT_FALSE(ChunkScanner(log.data(), log.size()).valid_header());

  std::vector<unsigned char> v2 = file_preamble();
  v2[sizeof(kMagic)] = 99;
  EXPECT_FALSE(ChunkScanner(v2.data(), v2.size()).valid_header());

  const unsigned char tiny[] = {'V', 'I'};
  EXPECT_FALSE(ChunkScanner(tiny, sizeof(tiny)).valid_header());
}

TEST(Codecs, TrackerConfigRoundTripsBitExactly) {
  core::TrackerConfig cfg;
  cfg.sanitizer.antenna_difference = false;
  cfg.sanitizer.single_subcarrier = 7;
  cfg.sanitizer.rx_null_ratio = {{0.25, -1.5}, {-0.0, 3e-310}};
  cfg.matcher.window_s = 0.123456789012345678;
  cfg.matcher.num_lengths = 11;
  cfg.steering.enabled = false;
  cfg.steering.detector.yaw_rate_threshold = 1e308;
  cfg.relock_patience = 9;
  cfg.soft_continuity_weight = std::numeric_limits<double>::denorm_min();

  std::vector<unsigned char> buf;
  encode_tracker_config(buf, cfg);
  Cursor in(buf.data(), buf.size());
  core::TrackerConfig back;
  ASSERT_TRUE(decode_tracker_config(in, &back));
  EXPECT_TRUE(in.exhausted());

  std::vector<unsigned char> again;
  encode_tracker_config(again, back);
  // Re-encoding the decoded config reproduces the same bytes: every
  // serialized field round-tripped bit-exactly.
  EXPECT_EQ(buf, again);
  EXPECT_EQ(back.sanitizer.rx_null_ratio.size(), 2u);
  EXPECT_EQ(back.relock_patience, 9);
}

TEST(Codecs, ConfigLayoutVersionIsChecked) {
  core::TrackerConfig cfg;
  std::vector<unsigned char> buf;
  encode_tracker_config(buf, cfg);
  buf[0] ^= 0xFF;  // layout version is the leading u32
  Cursor in(buf.data(), buf.size());
  core::TrackerConfig back;
  EXPECT_FALSE(decode_tracker_config(in, &back));
}

TEST(Codecs, ProfileRoundTripsBitExactly) {
  core::CsiProfile profile;
  profile.sample_rate_hz = 200.0;
  profile.reference_phase = -0.75;
  core::PositionProfile p;
  p.position_index = 3;
  p.fingerprint_phase = 0.1234567890123456789;
  p.true_position = {0.4, -0.3, 1.1};
  p.csi.t0 = 0.5;
  p.csi.dt = 0.005;
  p.csi.values = {1e-300, -0.0, 2.5, std::nextafter(1.0, 2.0)};
  p.orientation = p.csi;
  p.orientation.values = {0.0, 0.1, 0.2, 0.3};
  profile.positions.push_back(p);

  std::vector<unsigned char> buf;
  encode_profile(buf, profile);
  Cursor in(buf.data(), buf.size());
  core::CsiProfile back;
  ASSERT_TRUE(decode_profile(in, &back));
  EXPECT_TRUE(in.exhausted());

  std::vector<unsigned char> again;
  encode_profile(again, back);
  EXPECT_EQ(buf, again);
  ASSERT_EQ(back.positions.size(), 1u);
  EXPECT_EQ(back.positions[0].csi.values.size(), 4u);
  EXPECT_EQ(bits_of(back.positions[0].csi.values[1]), bits_of(-0.0));
}

TEST(Codecs, MalformedProfilesAreRejected) {
  // A profile every consumer would mis-index (orientation shorter than
  // the CSI series, a grid step that is NaN or below kMinProfileDt,
  // non-finite samples) must fail to decode: the tracker used to read
  // past the orientation series, throw from the query resampler, or size
  // its query by an out-of-range cast.
  std::vector<unsigned char> good;
  encode_profile(good, core::testing::synthetic_profile(2));
  Cursor good_in(good.data(), good.size());
  core::CsiProfile back;
  ASSERT_TRUE(decode_profile(good_in, &back));
  for (const auto& [name, profile] : core::testing::hostile_profiles()) {
    EXPECT_FALSE(profile.well_formed()) << name;
    std::vector<unsigned char> buf;
    encode_profile(buf, profile);
    Cursor in(buf.data(), buf.size());
    EXPECT_FALSE(decode_profile(in, &back)) << name;
  }
}

TEST(Codecs, TrackResultRoundTripsBitExactly) {
  core::TrackResult r;
  r.valid = true;
  r.t = 12.345;
  r.theta_rad = -0.0;
  r.mode = core::TrackingMode::kCameraFallback;
  r.position_slot = 4;
  r.raw.valid = true;
  r.raw.match_distance = std::numeric_limits<double>::denorm_min();
  r.raw.runner_up_valid = true;
  r.raw.match_start = 120;
  r.raw.match_length = 64;
  r.raw.speed_ratio = 1.25;

  std::vector<unsigned char> buf;
  encode_track_result(buf, r);
  // The entry size helper also covers the 8-byte session id written
  // next to each result in a kTickEnd chunk.
  EXPECT_EQ(buf.size() + 8, tick_result_entry_size());
  Cursor in(buf.data(), buf.size());
  core::TrackResult back;
  ASSERT_TRUE(decode_track_result(in, &back));
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(back.mode, core::TrackingMode::kCameraFallback);
  EXPECT_EQ(bits_of(back.theta_rad), bits_of(-0.0));
  EXPECT_EQ(back.raw.match_start, 120u);
}

TEST(Codecs, CsiPayloadSizeMatchesHelper) {
  wifi::CsiMeasurement m;
  m.t = 1.5;
  m.h[0].assign(30, {0.5, -0.25});
  m.h[1].assign(30, {1.0, 0.0});
  std::vector<unsigned char> buf;
  encode_csi_payload(buf, 17, m, true);
  EXPECT_EQ(buf.size() + chunk_overhead(), csi_chunk_size(30));

  Cursor in(buf.data(), buf.size());
  std::uint64_t id = 0;
  wifi::CsiMeasurement back;
  bool offered = false;
  ASSERT_TRUE(decode_csi_payload(in, &id, &back, &offered));
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(id, 17u);
  EXPECT_TRUE(offered);
  ASSERT_EQ(back.num_subcarriers(), 30u);
  EXPECT_EQ(back.h[1][29], (std::complex<double>{1.0, 0.0}));
}

TEST(Codecs, AbsurdCountsAreRejectedNotReserved) {
  // A CSI payload declaring 2^31 subcarriers must fail cleanly instead
  // of attempting a multi-gigabyte reserve.
  std::vector<unsigned char> buf;
  put_u64(buf, 1);       // id
  put_f64(buf, 0.0);     // t
  put_u8(buf, 0);        // offered
  put_u32(buf, 1u << 31);
  Cursor in(buf.data(), buf.size());
  std::uint64_t id = 0;
  wifi::CsiMeasurement m;
  bool offered = false;
  EXPECT_FALSE(decode_csi_payload(in, &id, &m, &offered));

  // An engine header whose thread or lane count exceeds the tools'
  // --threads cap must fail to decode: a replay would otherwise size a
  // worker pool from it and die in std::bad_alloc.
  const auto header = [](std::uint64_t threads, std::uint8_t reserved,
                         std::uint64_t lanes, double high_watermark,
                         std::uint64_t block_spins) {
    std::vector<unsigned char> out;
    put_u64(out, threads);
    put_u8(out, reserved);
    put_u64(out, 64);  // csi_capacity
    put_u64(out, 64);  // imu_capacity
    put_u8(out, 0);    // policy
    put_u64(out, lanes);
    put_f64(out, high_watermark);
    put_u64(out, block_spins);
    return out;
  };
  const auto decodes = [](const std::vector<unsigned char>& bytes,
                          engine::EngineDescriptor* desc) {
    Cursor cursor(bytes.data(), bytes.size());
    return decode_engine_descriptor(cursor, desc) && cursor.exhausted();
  };
  engine::EngineDescriptor desc;
  EXPECT_FALSE(decodes(header(std::uint64_t{1} << 40, 1, 2, 0.75, 16), &desc));
  EXPECT_FALSE(decodes(header(2, 1, std::uint64_t{1} << 40, 0.75, 16), &desc));
  EXPECT_FALSE(
      decodes(header(engine::kMaxWorkerThreads + 1, 1, 2, 0.75, 16), &desc));
  EXPECT_FALSE(
      decodes(header(2, 1, engine::kMaxWorkerThreads + 1, 0.75, 16), &desc));
  ASSERT_TRUE(decodes(header(engine::kMaxWorkerThreads, 1,
                             engine::kMaxWorkerThreads, 0.75, 16),
                      &desc));
  // The byte after the thread count is reserved, and so are the last
  // three fields (lanes, high watermark, block spin limit): logs holding
  // any values there still decode, to the same descriptor, and re-encode
  // with the engine's constants.
  ASSERT_TRUE(decodes(header(3, 0, 2, 0.5, 16), &desc));
  EXPECT_EQ(desc.num_threads, 3u);
  EXPECT_EQ(desc.ingest.csi_capacity, 64u);
  std::vector<unsigned char> encoded;
  encode_engine_descriptor(encoded, desc);
  EXPECT_EQ(encoded, header(3, 1, 0, engine::kHighWatermark,
                            engine::kMaxBlockSpins));

  // Matcher fields size loops and reserves, or are cast to size_t, when
  // a replay builds the session: 2^40 candidate lengths, a 2^40-sample
  // query, a NaN window and friends must fail to decode instead.
  const auto config_decodes = [](const core::TrackerConfig& cfg) {
    std::vector<unsigned char> bytes;
    encode_tracker_config(bytes, cfg);
    Cursor cursor(bytes.data(), bytes.size());
    core::TrackerConfig back;
    return decode_tracker_config(cursor, &back) && cursor.exhausted();
  };
  ASSERT_TRUE(config_decodes(core::TrackerConfig{}));
  using Forge = void (*)(core::MatcherConfig&);
  const Forge forged[] = {
      [](core::MatcherConfig& mc) { mc.num_lengths = std::size_t{1} << 40; },
      [](core::MatcherConfig& mc) {
        mc.min_query_samples = std::size_t{1} << 40;
      },
      [](core::MatcherConfig& mc) { mc.start_stride = ~std::size_t{0}; },
      [](core::MatcherConfig& mc) {
        mc.window_s = std::numeric_limits<double>::quiet_NaN();
      },
      [](core::MatcherConfig& mc) { mc.window_s = -0.1; },
      [](core::MatcherConfig& mc) { mc.window_s = 1e300; },
      [](core::MatcherConfig& mc) {
        mc.min_length_factor = std::numeric_limits<double>::quiet_NaN();
      },
      [](core::MatcherConfig& mc) { mc.max_length_factor = 1e300; },
      [](core::MatcherConfig& mc) { mc.min_length_factor = -1.0; },
      [](core::MatcherConfig& mc) {
        mc.band_fraction = std::numeric_limits<double>::quiet_NaN();
      },
      [](core::MatcherConfig& mc) {
        mc.max_dc_offset_rad = std::numeric_limits<double>::infinity();
      },
  };
  for (std::size_t k = 0; k < std::size(forged); ++k) {
    core::TrackerConfig cfg;
    forged[k](cfg.matcher);
    EXPECT_FALSE(config_decodes(cfg)) << "forged matcher field #" << k;
  }
}

}  // namespace
}  // namespace vihot::replay
