// vihotd wire protocol: length-prefixed, CRC-guarded frames over a
// local stream socket.
//
// The daemon serves three client surfaces over one frame grammar:
//
//   feeder      opens sessions, streams CSI/IMU/camera samples into the
//               engine's async ingress (offer_csi / offer_imu), and
//               advances the serving clock with explicit kTick frames;
//   subscriber  receives every tick's TrackResults as a broadcast
//               stream, decoupled from the tick loop by a bounded
//               per-subscriber queue with an overload policy;
//   control     reads the health/obs surface and can request a graceful
//               drain-then-shutdown.
//
// A frame reuses the `.vrlog` chunk discipline byte for byte:
//
//   frame := u32:type u32:payload_len payload u32:crc32
//
// with the CRC covering type + length + payload (replay::crc32, the
// repo-wide slicing-by-8 table), all integers little-endian and doubles
// raw IEEE-754 bits. Structured payloads reuse the replay codecs
// directly — a profile or TrackerConfig on the wire is the SAME bytes
// as in a flight-recorder log, and a TrackResult streamed to a
// subscriber can be bit-compared against a recorded kTickEnd entry
// without any re-quantization. That shared discipline is what lets
// vihot_loadgen turn any .vrlog into daemon load and verify the daemon
// end-to-end against the recording (DESIGN.md Sec. 5k).
//
// Robustness contract: a malformed frame (bad CRC, oversized length,
// short payload, unknown type for the connection's role) costs the
// offending CONNECTION an error frame and a close — never the daemon,
// and never the tick loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "camera/camera_tracker.h"
#include "core/profile.h"
#include "core/tracker.h"
#include "imu/imu.h"
#include "replay/vrlog.h"
#include "wifi/csi.h"

namespace vihot::daemon {

inline constexpr std::uint32_t kProtocolVersion = 1;

/// Upper bound on a frame's payload; a corrupt or hostile length field
/// must not trigger gigabyte allocations. Sized for the largest real
/// payload (a profile chunk) with generous slack.
inline constexpr std::size_t kMaxFramePayload = 8u << 20;

/// Bytes of framing around a payload (type + length + CRC).
[[nodiscard]] constexpr std::size_t frame_overhead() noexcept { return 12; }

enum class MsgType : std::uint32_t {
  // Client -> daemon.
  kHello = 0x01,         ///< u32 version, u8 role — first frame, always
  kOpenSession = 0x02,   ///< u64 client sid, profile, TrackerConfig
  kCloseSession = 0x03,  ///< u64 client sid
  kCsi = 0x10,           ///< replay CSI payload (client sid keyed)
  kImu = 0x11,           ///< replay IMU payload
  kCamera = 0x12,        ///< replay camera payload
  kTick = 0x20,          ///< f64 t_now: run one estimate_all tick
  kSubscribe = 0x30,     ///< u8 policy override flag+policy, u32 capacity
  kUnsubscribe = 0x31,   ///< leave the fan-out (connection stays up)
  kHealth = 0x40,        ///< request the health/obs JSON
  kShutdown = 0x41,      ///< control: graceful drain-then-shutdown

  // Daemon -> client.
  kHelloAck = 0x81,       ///< u32 version
  kSessionAck = 0x82,     ///< u64 client sid, u64 global sid
  kSessionClosed = 0x83,  ///< u64 client sid
  kSubscribeAck = 0x84,   ///< empty: registered, every later tick reaches it
  kResults = 0x90,        ///< f64 t_now, u64 n, n x (u64 sid, TrackResult)
  kHealthReport = 0xA0,   ///< raw JSON bytes
  kError = 0xE0,          ///< u32 code, u32 len, message bytes
  kBye = 0xF0,            ///< graceful close marker (drain complete)
};

enum class Role : std::uint8_t {
  kFeeder = 0,
  kSubscriber = 1,
  kControl = 2,
};

/// kError codes (diagnostic; the connection is closed either way).
enum class ErrorCode : std::uint32_t {
  kProtocol = 1,        ///< malformed frame or payload
  kUnknownSession = 2,  ///< feed/close for a sid this connection never opened
  kBadRole = 3,         ///< frame type not allowed for the hello'd role
  kShuttingDown = 4,    ///< daemon is draining; no new work accepted
};

/// One parsed frame, payload owned (the parser's buffer is transient).
struct Frame {
  MsgType type{};
  std::vector<unsigned char> payload;
};

/// Appends one framed message (type, length, payload, CRC) to `out`.
void append_frame(std::vector<unsigned char>& out, MsgType type,
                  const unsigned char* payload, std::size_t payload_size);
inline void append_frame(std::vector<unsigned char>& out, MsgType type,
                         const std::vector<unsigned char>& payload) {
  append_frame(out, type, payload.data(), payload.size());
}

/// Incremental frame assembler over an untrusted byte stream. Feed
/// whatever the socket delivered; next() yields complete CRC-verified
/// frames until the buffer runs dry (nullopt) or a protocol violation
/// poisons the stream (failed() + error(); no further frames are
/// yielded — the caller drops the connection).
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void feed(const unsigned char* data, std::size_t n);

  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Bytes buffered but not yet consumed (diagnostics).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  std::size_t max_payload_;
  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
  std::string error_;
};

// --- Structured payload codecs ------------------------------------------
// Same conventions as replay/vrlog.h: encoders append, decoders read
// through a replay::Cursor and report failure via ok()/bool.

void encode_hello(std::vector<unsigned char>& out, Role role);
[[nodiscard]] bool decode_hello(replay::Cursor& in, std::uint32_t* version,
                                Role* role);

void encode_open_session(std::vector<unsigned char>& out,
                         std::uint64_t client_sid,
                         const core::CsiProfile& profile,
                         const core::TrackerConfig& config);
[[nodiscard]] bool decode_open_session(replay::Cursor& in,
                                       std::uint64_t* client_sid,
                                       core::CsiProfile* profile,
                                       core::TrackerConfig* config);

void encode_session_ack(std::vector<unsigned char>& out,
                        std::uint64_t client_sid, std::uint64_t global_sid);
[[nodiscard]] bool decode_session_ack(replay::Cursor& in,
                                      std::uint64_t* client_sid,
                                      std::uint64_t* global_sid);

/// Subscriber queue parameters. capacity 0 = daemon default; the policy
/// override is optional (has_policy=false keeps the daemon default).
struct SubscribeRequest {
  bool has_policy = false;
  std::uint8_t policy = 0;  ///< engine::OverloadPolicy as u8
  std::uint32_t capacity = 0;
};
void encode_subscribe(std::vector<unsigned char>& out,
                      const SubscribeRequest& req);
[[nodiscard]] bool decode_subscribe(replay::Cursor& in,
                                    SubscribeRequest* req);

/// One tick's broadcast: t_now plus (global sid, TrackResult) pairs in
/// estimate_all() result order.
void encode_results(std::vector<unsigned char>& out, double t_now,
                    const std::uint64_t* ids,
                    const core::TrackResult* results, std::size_t n);
struct ResultsFrame {
  double t_now = 0.0;
  std::vector<std::uint64_t> ids;
  std::vector<core::TrackResult> results;
};
[[nodiscard]] bool decode_results(replay::Cursor& in, ResultsFrame* out);

void encode_error(std::vector<unsigned char>& out, ErrorCode code,
                  const std::string& message);
[[nodiscard]] bool decode_error(replay::Cursor& in, ErrorCode* code,
                                std::string* message);

}  // namespace vihot::daemon
