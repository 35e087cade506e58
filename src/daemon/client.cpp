#include "daemon/client.h"

namespace vihot::daemon {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
/// The default reply timeout of the other verbs.
constexpr int kSubscribeAckTimeoutMs = 5000;

}  // namespace

Client Client::connect(const std::string& socket_path, Role role,
                       int timeout_ms) {
  Client c;
  c.stream_ = Stream::connect_unix(socket_path);
  if (!c.stream_.valid()) {
    c.error_ = "cannot connect to " + socket_path;
    return c;
  }
  std::vector<unsigned char> payload;
  encode_hello(payload, role);
  if (!c.send_msg(MsgType::kHello, payload)) return c;
  if (!c.expect(MsgType::kHelloAck, timeout_ms)) return c;
  return c;
}

bool Client::send_msg(MsgType type,
                      const std::vector<unsigned char>& payload) {
  std::vector<unsigned char> bytes;
  bytes.reserve(frame_overhead() + payload.size());
  append_frame(bytes, type, payload);
  if (!stream_.send_all(bytes.data(), bytes.size())) {
    error_ = "send failed (daemon gone?)";
    return false;
  }
  return true;
}

bool Client::send_raw(const unsigned char* data, std::size_t n) {
  return stream_.send_all(data, n);
}

std::optional<Frame> Client::recv_frame(int timeout_ms) {
  for (;;) {
    if (std::optional<Frame> frame = parser_.next()) return frame;
    if (parser_.failed()) {
      error_ = "protocol error from daemon: " + parser_.error();
      return std::nullopt;
    }
    unsigned char buf[kReadChunk];
    const long rc = stream_.recv_some(buf, sizeof(buf), timeout_ms);
    if (rc == -2) return std::nullopt;  // timeout; error_ untouched
    if (rc == 0) {
      error_ = "daemon closed the connection";
      return std::nullopt;
    }
    if (rc < 0) {
      error_ = "recv failed";
      return std::nullopt;
    }
    parser_.feed(buf, static_cast<std::size_t>(rc));
  }
}

std::optional<Frame> Client::expect(MsgType want, int timeout_ms) {
  std::optional<Frame> frame = recv_frame(timeout_ms);
  if (!frame) {
    if (error_.empty()) error_ = "timed out waiting for daemon reply";
    return std::nullopt;
  }
  if (frame->type == want) return frame;
  if (frame->type == MsgType::kError) {
    replay::Cursor in(frame->payload.data(), frame->payload.size());
    ErrorCode code{};
    std::string message;
    if (decode_error(in, &code, &message)) {
      error_ = "daemon error " +
               std::to_string(static_cast<std::uint32_t>(code)) + ": " +
               message;
    } else {
      error_ = "daemon sent a malformed error frame";
    }
    return std::nullopt;
  }
  error_ = "unexpected frame type 0x" +
           std::to_string(static_cast<std::uint32_t>(frame->type));
  return std::nullopt;
}

bool Client::open_session(std::uint64_t client_sid,
                          const core::CsiProfile& profile,
                          const core::TrackerConfig& config,
                          std::uint64_t* global_sid, int timeout_ms) {
  std::vector<unsigned char> payload;
  encode_open_session(payload, client_sid, profile, config);
  if (!send_msg(MsgType::kOpenSession, payload)) return false;
  std::optional<Frame> ack = expect(MsgType::kSessionAck, timeout_ms);
  if (!ack) return false;
  replay::Cursor in(ack->payload.data(), ack->payload.size());
  std::uint64_t echoed = 0;
  std::uint64_t gid = 0;
  if (!decode_session_ack(in, &echoed, &gid) || echoed != client_sid) {
    error_ = "malformed session ack";
    return false;
  }
  if (global_sid != nullptr) *global_sid = gid;
  return true;
}

bool Client::close_session(std::uint64_t client_sid, int timeout_ms) {
  std::vector<unsigned char> payload;
  replay::put_u64(payload, client_sid);
  if (!send_msg(MsgType::kCloseSession, payload)) return false;
  return expect(MsgType::kSessionClosed, timeout_ms).has_value();
}

bool Client::send_csi(std::uint64_t client_sid,
                      const wifi::CsiMeasurement& m) {
  std::vector<unsigned char> payload;
  replay::encode_csi_payload(payload, client_sid, m, /*offered=*/true);
  return send_msg(MsgType::kCsi, payload);
}

bool Client::send_imu(std::uint64_t client_sid, const imu::ImuSample& s) {
  std::vector<unsigned char> payload;
  replay::encode_imu_payload(payload, client_sid, s, /*offered=*/true);
  return send_msg(MsgType::kImu, payload);
}

bool Client::send_camera(std::uint64_t client_sid,
                         const camera::CameraTracker::Estimate& e) {
  std::vector<unsigned char> payload;
  replay::encode_camera_payload(payload, client_sid, e);
  return send_msg(MsgType::kCamera, payload);
}

bool Client::send_tick(double t) {
  std::vector<unsigned char> payload;
  replay::put_f64(payload, t);
  return send_msg(MsgType::kTick, payload);
}

bool Client::subscribe(const SubscribeRequest& req) {
  std::vector<unsigned char> payload;
  encode_subscribe(payload, req);
  if (!send_msg(MsgType::kSubscribe, payload)) return false;
  return expect(MsgType::kSubscribeAck, kSubscribeAckTimeoutMs).has_value();
}

bool Client::unsubscribe() {
  return send_msg(MsgType::kUnsubscribe, {});
}

std::optional<ResultsFrame> Client::next_results(int timeout_ms) {
  for (;;) {
    std::optional<Frame> frame = recv_frame(timeout_ms);
    if (!frame) return std::nullopt;
    if (frame->type == MsgType::kBye) {
      saw_bye_ = true;
      return std::nullopt;
    }
    if (frame->type != MsgType::kResults) continue;  // e.g. stray ack
    replay::Cursor in(frame->payload.data(), frame->payload.size());
    ResultsFrame out;
    if (!decode_results(in, &out)) {
      error_ = "malformed results frame";
      return std::nullopt;
    }
    return out;
  }
}

std::optional<std::string> Client::health(int timeout_ms) {
  if (!send_msg(MsgType::kHealth, {})) return std::nullopt;
  std::optional<Frame> frame = expect(MsgType::kHealthReport, timeout_ms);
  if (!frame) return std::nullopt;
  return std::string(frame->payload.begin(), frame->payload.end());
}

bool Client::shutdown_daemon(int timeout_ms) {
  if (!send_msg(MsgType::kShutdown, {})) return false;
  std::optional<Frame> frame = expect(MsgType::kBye, timeout_ms);
  if (frame) saw_bye_ = true;
  return frame.has_value();
}

}  // namespace vihot::daemon
