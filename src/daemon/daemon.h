// vihotd core: tracking-as-a-service over a local socket.
//
// One Daemon owns a TrackerEngine (the serving engine tier), a
// SubscriberHub (the result fan-out tier) and a unix-socket listener.
// Each accepted connection gets a reader thread that assembles frames
// (daemon/protocol.h), dispatches by the connection's hello'd role, and
// tears the connection down on any protocol violation — a malformed
// frame costs the offending client its connection, never the daemon.
//
// Serving clock: feeders advance time explicitly with kTick frames.
// Concurrent feeders replaying independent drives submit their own
// re-based clocks, so the daemon serializes ticks and clamps them
// monotone — estimate_all(max(t_req, last_tick_t)) — and resets the
// clamp when the fleet empties (a fresh corpus run against a warm
// daemon starts from its own t=0 again). For a single feeder the clamp
// is the identity (recorded tick times are already monotone), which is
// what keeps the daemon path bit-identical to an in-process replay.
//
// Session churn (create/destroy) and ticks share one engine mutex: the
// estimate_all() result span is only valid until the next churn call,
// and the daemon encodes the span into the broadcast frame under that
// same lock. Feed offers deliberately stay OUTSIDE it — they land in
// the per-session SPSC ingest rings and are drained by the next tick —
// and so does the health probe, which a kBlock tick waiting on a slow
// subscriber would otherwise stall.
//
// Shutdown (SIGTERM -> request_shutdown(), or a control client's
// kShutdown frame): stop accepting, half-close every connection's read
// side, join readers (feeder sessions they still own are reaped as
// orphans), flush every subscriber queue against a bounded deadline
// with a terminating kBye frame, then return from serve() — exit 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "daemon/protocol.h"
#include "daemon/socket.h"
#include "daemon/subscriber.h"
#include "engine/tracker_engine.h"
#include "obs/sink.h"

namespace vihot::daemon {

struct DaemonConfig {
  std::string socket_path;

  /// Engine worker threads (TrackerEngine::Config::num_threads; 0 =
  /// ticks run inline on the ticking reader thread).
  std::size_t threads = 0;

  /// Ingest rings per session. Sized generously by default: a daemon
  /// feeder batches a whole replay window between kTick frames, unlike
  /// the live-capture path the engine default (512) is tuned for.
  std::size_t ingest_capacity = 8192;
  engine::OverloadPolicy ingest_policy = engine::OverloadPolicy::kDropOldest;

  /// Subscriber queue defaults (kSubscribe may override per client).
  SubscriberOptions subscriber{};

  /// Accept/read poll granularity — bounds how fast stop is noticed.
  int poll_ms = 100;
  /// Subscriber queue flush budget during graceful shutdown.
  int drain_timeout_ms = 2000;
};

class Daemon {
 public:
  explicit Daemon(const DaemonConfig& config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket. False (with error()) when the path is unusable.
  [[nodiscard]] bool start();
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Accept loop; returns after request_shutdown() completes the drain
  /// sequence. Call from the main thread (signal handlers only need to
  /// call request_shutdown(), which is async-signal-safe).
  void serve();

  /// Flags the serve loop to stop; safe from any thread and from a
  /// signal handler (it only stores an atomic).
  void request_shutdown() { stop_.store(true, std::memory_order_release); }

  [[nodiscard]] bool stopping() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

  /// Health snapshot (the control surface's kHealthReport payload).
  [[nodiscard]] std::string health_json();

  [[nodiscard]] obs::Sink& sink() noexcept { return sink_; }
  [[nodiscard]] engine::TrackerEngine& engine() noexcept { return engine_; }
  [[nodiscard]] std::size_t subscriber_count() const {
    return hub_.size();
  }

 private:
  struct Connection {
    std::shared_ptr<Stream> stream;
    std::thread reader;
    std::atomic<bool> done{false};

    // Reader-thread-local state (no lock: only the reader touches it).
    bool hello_done = false;
    Role role = Role::kFeeder;
    /// Feeder: client-chosen session id -> engine session id.
    std::unordered_map<std::uint64_t, engine::SessionId> sessions;
    /// Subscriber: hub registration (0 = not subscribed).
    std::uint64_t sub_id = 0;
  };

  void reader_loop(Connection& conn);
  /// Dispatches one verified frame; false tears the connection down.
  bool handle_frame(Connection& conn, const Frame& frame);
  bool handle_feeder(Connection& conn, const Frame& frame);
  bool handle_subscriber(Connection& conn, const Frame& frame);
  bool handle_control(Connection& conn, const Frame& frame);

  /// Runs one serialized estimate_all tick and broadcasts the results.
  void run_tick(double t_req);

  void send_error(Connection& conn, ErrorCode code,
                  const std::string& message);
  bool send_frame(Connection& conn, MsgType type,
                  const std::vector<unsigned char>& payload);

  /// Reaps sessions a dying feeder never closed.
  void orphan_sessions(Connection& conn);

  void reap_finished_connections();
  void shutdown_sequence();

  DaemonConfig config_;
  std::string error_;
  obs::Sink sink_;
  engine::TrackerEngine engine_;
  SubscriberHub hub_;
  Listener listener_;
  std::atomic<bool> stop_{false};

  /// Serializes session churn + ticks (see header comment). Never held
  /// while blocking on a socket.
  std::mutex engine_mu_;
  double last_tick_t_ = 0.0;
  bool clock_started_ = false;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace vihot::daemon
