// Client-side view of the vihotd protocol: a thin blocking wrapper
// used by vihot_loadgen, the daemon test suite, and anything else that
// wants to talk to a running daemon without re-implementing framing.
//
// One Client is one connection with one hello'd role; its methods are
// the role's verbs. Not thread-safe — a client belongs to one driving
// thread, mirroring the daemon's one-reader-per-connection model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "daemon/protocol.h"
#include "daemon/socket.h"

namespace vihot::daemon {

class Client {
 public:
  /// Connects and completes the hello handshake; check ok() / error().
  static Client connect(const std::string& socket_path, Role role,
                        int timeout_ms = 5000);

  Client() = default;

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  // --- Feeder verbs -----------------------------------------------------

  /// Opens a session under a client-chosen id; fills the daemon's
  /// global id from the ack.
  bool open_session(std::uint64_t client_sid,
                    const core::CsiProfile& profile,
                    const core::TrackerConfig& config,
                    std::uint64_t* global_sid, int timeout_ms = 5000);
  bool close_session(std::uint64_t client_sid, int timeout_ms = 5000);

  // Fire-and-forget feeds (the daemon maps them onto offer_* /
  // push_camera; rejection is visible in its obs counters, not here).
  bool send_csi(std::uint64_t client_sid, const wifi::CsiMeasurement& m);
  bool send_imu(std::uint64_t client_sid, const imu::ImuSample& s);
  bool send_camera(std::uint64_t client_sid,
                   const camera::CameraTracker::Estimate& e);
  /// Advances the serving clock: one estimate_all() tick at t.
  bool send_tick(double t);

  // --- Subscriber verbs -------------------------------------------------

  /// Subscribes and waits (up to 5 s) for the daemon's kSubscribeAck:
  /// once this returns true, every later tick's results reach this
  /// client.
  bool subscribe(const SubscribeRequest& req = {});
  bool unsubscribe();

  /// Next kResults frame. nullopt on timeout, kBye, EOF or error
  /// (disambiguate with saw_bye() / ok()).
  std::optional<ResultsFrame> next_results(int timeout_ms = 5000);
  [[nodiscard]] bool saw_bye() const noexcept { return saw_bye_; }

  // --- Control verbs ----------------------------------------------------

  std::optional<std::string> health(int timeout_ms = 5000);
  /// Requests graceful shutdown; true once the daemon confirms (kBye).
  bool shutdown_daemon(int timeout_ms = 5000);

  /// Sends pre-framed raw bytes (tests: malformed/corrupt frames).
  bool send_raw(const unsigned char* data, std::size_t n);
  /// Closes the connection (mid-frame disconnects in tests).
  void close() { stream_.close(); }
  [[nodiscard]] Stream& stream() noexcept { return stream_; }

 private:
  bool send_msg(MsgType type, const std::vector<unsigned char>& payload);
  /// Blocks for the next whole frame; nullopt on timeout/EOF/error.
  std::optional<Frame> recv_frame(int timeout_ms);
  /// Waits for a frame of `want`, failing on kError or anything else.
  std::optional<Frame> expect(MsgType want, int timeout_ms);

  Stream stream_;
  FrameParser parser_;
  std::string error_;
  bool saw_bye_ = false;
};

}  // namespace vihot::daemon
