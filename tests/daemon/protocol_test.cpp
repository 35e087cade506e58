// Daemon wire-protocol robustness (ctest label: daemon).
//
// The FrameParser sits on an UNTRUSTED byte stream: anything a client
// can put on the socket — truncation, bit flips, hostile length fields,
// garbage — must either yield a CRC-verified frame or poison the parser
// (failed()), never crash, over-allocate, or yield a corrupt frame.
// The codec tests pin the payload layouts: a profile/TrackerConfig/
// TrackResult on the wire must be the SAME bytes as in a .vrlog, which
// is what the end-to-end bit-identity gate relies on.
#include "daemon/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "replay/vrlog.h"
#include "tests/core/test_helpers.h"

namespace vihot::daemon {
namespace {

std::vector<unsigned char> frame_of(MsgType type,
                                    const std::vector<unsigned char>& payload) {
  std::vector<unsigned char> out;
  append_frame(out, type, payload);
  return out;
}

std::vector<unsigned char> some_payload(std::size_t n) {
  std::vector<unsigned char> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<unsigned char>((i * 131) & 0xFF);
  }
  return p;
}

// ------------------------------------------------------------ framing

TEST(FrameParser, RoundTripsSingleFrame) {
  const auto payload = some_payload(37);
  const auto bytes = frame_of(MsgType::kCsi, payload);
  EXPECT_EQ(bytes.size(), payload.size() + frame_overhead());

  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  const auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kCsi);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.failed());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, RoundTripsEmptyPayload) {
  const auto bytes = frame_of(MsgType::kBye, {});
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  const auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kBye);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(FrameParser, ReassemblesByteAtATime) {
  // A frame dribbled in 1-byte reads must assemble identically — the
  // socket makes no delivery-boundary promises.
  std::vector<unsigned char> bytes;
  append_frame(bytes, MsgType::kTick, some_payload(8));
  append_frame(bytes, MsgType::kImu, some_payload(61));

  FrameParser parser;
  std::vector<Frame> got;
  for (const unsigned char b : bytes) {
    parser.feed(&b, 1);
    while (auto f = parser.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, MsgType::kTick);
  EXPECT_EQ(got[0].payload.size(), 8u);
  EXPECT_EQ(got[1].type, MsgType::kImu);
  EXPECT_EQ(got[1].payload, some_payload(61));
  EXPECT_FALSE(parser.failed());
}

TEST(FrameParser, TruncatedFrameIsNotAnError) {
  // A half-delivered frame is just "not yet" — only corruption poisons.
  const auto bytes = frame_of(MsgType::kCsi, some_payload(100));
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size() / 2);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.failed());
  parser.feed(bytes.data() + bytes.size() / 2, bytes.size() - bytes.size() / 2);
  EXPECT_TRUE(parser.next().has_value());
}

TEST(FrameParser, CrcCorruptionPoisonsTheStream) {
  for (std::size_t flip : {0u, 10u, 40u}) {  // type, payload, CRC bytes
    auto bytes = frame_of(MsgType::kCsi, some_payload(32));
    bytes[flip] ^= 0x40;
    FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    EXPECT_FALSE(parser.next().has_value()) << "flip at " << flip;
    EXPECT_TRUE(parser.failed()) << "flip at " << flip;
    EXPECT_FALSE(parser.error().empty());
    // Poisoned parsers stay poisoned: feeding a pristine frame after
    // the fault must not resurrect the stream.
    const auto good = frame_of(MsgType::kTick, some_payload(8));
    parser.feed(good.data(), good.size());
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_TRUE(parser.failed());
  }
}

TEST(FrameParser, CorruptLengthFailsOnceTheFakeFrameArrives) {
  // Flipping a LENGTH bit (within the payload cap) is indistinguishable
  // from a longer frame until that many bytes arrive — then the CRC,
  // which covers the length field, must catch it.
  auto bytes = frame_of(MsgType::kCsi, some_payload(32));
  bytes[5] ^= 0x40;  // length 32 -> 16416, still under the cap
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.failed());  // still plausibly mid-frame
  const std::vector<unsigned char> filler(17000, 0);
  parser.feed(filler.data(), filler.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.failed());
}

TEST(FrameParser, OversizedLengthRejectedBeforeAllocation) {
  // A hostile length field must fail from the HEADER alone — the parser
  // may never wait for (or try to buffer) gigabytes of payload.
  std::vector<unsigned char> bytes;
  replay::put_u32(bytes, static_cast<std::uint32_t>(MsgType::kCsi));
  replay::put_u32(bytes, 0xFFFFFFFFu);
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.failed());
}

TEST(FrameParser, HonorsCustomPayloadCap) {
  const auto bytes = frame_of(MsgType::kCsi, some_payload(64));
  FrameParser strict(/*max_payload=*/16);
  strict.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(strict.next().has_value());
  EXPECT_TRUE(strict.failed());
}

TEST(FrameParser, GarbageBytesPoisonViaCrc) {
  std::vector<unsigned char> junk(64, 0xAB);
  FrameParser parser;
  parser.feed(junk.data(), junk.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.failed());
}

TEST(FrameParser, SustainedStreamCompactsItsBuffer) {
  // Long-lived feeder connections stream forever; the internal buffer
  // must not grow with total traffic, only with the unread tail.
  const auto bytes = frame_of(MsgType::kImu, some_payload(256));
  FrameParser parser;
  for (int k = 0; k < 2000; ++k) {
    parser.feed(bytes.data(), bytes.size());
    ASSERT_TRUE(parser.next().has_value());
  }
  EXPECT_FALSE(parser.failed());
  EXPECT_EQ(parser.buffered(), 0u);
}

// ------------------------------------------------------------- codecs

TEST(ProtocolCodec, HelloRoundTrip) {
  std::vector<unsigned char> bytes;
  encode_hello(bytes, Role::kSubscriber);
  replay::Cursor in(bytes.data(), bytes.size());
  std::uint32_t version = 0;
  Role role = Role::kFeeder;
  ASSERT_TRUE(decode_hello(in, &version, &role));
  EXPECT_EQ(version, kProtocolVersion);
  EXPECT_EQ(role, Role::kSubscriber);
}

TEST(ProtocolCodec, OpenSessionCarriesVrlogProfileBytes) {
  // The profile inside kOpenSession must be the flight-recorder
  // encoding verbatim: same codec, same bytes.
  const core::CsiProfile profile = core::testing::synthetic_profile(2);
  core::TrackerConfig config;
  config.camera_staleness_s = 0.125;

  std::vector<unsigned char> bytes;
  encode_open_session(bytes, 77, profile, config);

  std::vector<unsigned char> raw_profile;
  replay::encode_profile(raw_profile, profile);
  ASSERT_GT(bytes.size(), raw_profile.size() + 8);
  EXPECT_EQ(std::memcmp(bytes.data() + 8, raw_profile.data(),
                        raw_profile.size()),
            0);

  replay::Cursor in(bytes.data(), bytes.size());
  std::uint64_t sid = 0;
  core::CsiProfile got_profile;
  core::TrackerConfig got_config;
  ASSERT_TRUE(decode_open_session(in, &sid, &got_profile, &got_config));
  EXPECT_EQ(sid, 77u);
  EXPECT_EQ(got_profile.positions.size(), profile.positions.size());
  EXPECT_DOUBLE_EQ(got_config.camera_staleness_s, 0.125);
}

TEST(ProtocolCodec, OpenSessionRejectsMalformedProfiles) {
  // The daemon hands a decoded profile straight to the engine, so the
  // decoder is the only gate between a client's bytes and the matcher.
  for (const auto& [name, profile] : core::testing::hostile_profiles()) {
    std::vector<unsigned char> bytes;
    encode_open_session(bytes, 5, profile, core::TrackerConfig{});
    replay::Cursor in(bytes.data(), bytes.size());
    std::uint64_t sid = 0;
    core::CsiProfile got_profile;
    core::TrackerConfig got_config;
    EXPECT_FALSE(decode_open_session(in, &sid, &got_profile, &got_config))
        << name;
  }
}

TEST(ProtocolCodec, SessionAckRoundTrip) {
  std::vector<unsigned char> bytes;
  encode_session_ack(bytes, 5, 1234567890123ull);
  replay::Cursor in(bytes.data(), bytes.size());
  std::uint64_t client_sid = 0;
  std::uint64_t global_sid = 0;
  ASSERT_TRUE(decode_session_ack(in, &client_sid, &global_sid));
  EXPECT_EQ(client_sid, 5u);
  EXPECT_EQ(global_sid, 1234567890123ull);
}

TEST(ProtocolCodec, SubscribeRoundTripAndPolicyValidation) {
  SubscribeRequest req;
  req.has_policy = true;
  req.policy = 2;  // kDropNewest
  req.capacity = 9;
  std::vector<unsigned char> bytes;
  encode_subscribe(bytes, req);
  replay::Cursor in(bytes.data(), bytes.size());
  SubscribeRequest got;
  ASSERT_TRUE(decode_subscribe(in, &got));
  EXPECT_TRUE(got.has_policy);
  EXPECT_EQ(got.policy, 2);
  EXPECT_EQ(got.capacity, 9u);

  // An out-of-range policy byte must be rejected at decode time, not
  // cast blindly into the engine enum.
  req.policy = 3;
  bytes.clear();
  encode_subscribe(bytes, req);
  replay::Cursor bad(bytes.data(), bytes.size());
  EXPECT_FALSE(decode_subscribe(bad, &got));
}

TEST(ProtocolCodec, ResultsRoundTripBitExact) {
  core::TrackResult r0;
  r0.valid = true;
  r0.t = 1.25;
  r0.theta_rad = -0.375;
  core::TrackResult r1;  // default/invalid entry must survive too
  const core::TrackResult results[] = {r0, r1};
  const std::uint64_t ids[] = {42, 7};

  std::vector<unsigned char> bytes;
  encode_results(bytes, 2.5, ids, results, 2);
  replay::Cursor in(bytes.data(), bytes.size());
  ResultsFrame frame;
  ASSERT_TRUE(decode_results(in, &frame));
  EXPECT_EQ(frame.t_now, 2.5);
  ASSERT_EQ(frame.ids.size(), 2u);
  EXPECT_EQ(frame.ids[0], 42u);
  EXPECT_EQ(frame.ids[1], 7u);
  ASSERT_EQ(frame.results.size(), 2u);

  // Bit-exactness contract: re-encoding the decoded results reproduces
  // the original bytes (the comparison the verify gate performs).
  for (std::size_t k = 0; k < 2; ++k) {
    std::vector<unsigned char> a;
    std::vector<unsigned char> b;
    replay::encode_track_result(a, results[k]);
    replay::encode_track_result(b, frame.results[k]);
    EXPECT_EQ(a, b) << "result " << k;
  }
}

TEST(ProtocolCodec, ResultsDecodeRejectsTruncation) {
  core::TrackResult r;
  r.valid = true;
  const std::uint64_t id = 1;
  std::vector<unsigned char> bytes;
  encode_results(bytes, 0.5, &id, &r, 1);
  // Every strict prefix must fail cleanly (no partial frames).
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    replay::Cursor in(bytes.data(), bytes.size() - cut);
    ResultsFrame frame;
    EXPECT_FALSE(decode_results(in, &frame)) << "cut " << cut;
  }
}

TEST(ProtocolCodec, ResultsDecodeBoundsCountByPayload) {
  // A forged header claiming 2^32 results over a tiny payload must be
  // rejected before any reserve() — mirror of the oversized-length case.
  std::vector<unsigned char> bytes;
  replay::put_f64(bytes, 0.0);
  replay::put_u64(bytes, 0xFFFFFFFFull);  // absurd count, empty body
  replay::Cursor in(bytes.data(), bytes.size());
  ResultsFrame frame;
  EXPECT_FALSE(decode_results(in, &frame));
}

TEST(ProtocolCodec, ErrorRoundTrip) {
  std::vector<unsigned char> bytes;
  encode_error(bytes, ErrorCode::kUnknownSession, "sid 9 never opened");
  replay::Cursor in(bytes.data(), bytes.size());
  ErrorCode code{};
  std::string message;
  ASSERT_TRUE(decode_error(in, &code, &message));
  EXPECT_EQ(code, ErrorCode::kUnknownSession);
  EXPECT_EQ(message, "sid 9 never opened");
}

}  // namespace
}  // namespace vihot::daemon
