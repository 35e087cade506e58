#include "daemon/daemon.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace vihot::daemon {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

engine::TrackerEngine::Config engine_config(const DaemonConfig& config,
                                            obs::Sink* sink) {
  engine::TrackerEngine::Config ec;
  ec.num_threads = config.threads;
  ec.sink = sink;
  ec.ingest.csi_capacity = config.ingest_capacity;
  ec.ingest.imu_capacity = config.ingest_capacity;
  ec.ingest.policy = config.ingest_policy;
  return ec;
}

}  // namespace

Daemon::Daemon(const DaemonConfig& config)
    : config_(config),
      engine_(engine_config(config, &sink_)),
      hub_(&sink_) {}

Daemon::~Daemon() {
  request_shutdown();
  // serve() normally runs the shutdown sequence; this covers a Daemon
  // destroyed without ever serving.
  listener_.close();
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& conn : conns_) conn->stream->shutdown_both();
  }
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->reader.joinable()) conn->reader.join();
    }
    conns_.clear();
  }
  hub_.shutdown_all(0);
}

bool Daemon::start() {
  listener_ = Listener::listen_unix(config_.socket_path);
  if (!listener_.valid()) {
    error_ = listener_.error();
    return false;
  }
  return true;
}

void Daemon::serve() {
  while (!stopping()) {
    Stream accepted = listener_.accept(config_.poll_ms);
    if (stopping()) {
      accepted.close();
      break;
    }
    reap_finished_connections();
    if (!accepted.valid()) continue;  // poll timeout or transient error
    sink_.daemon.connections_accepted.inc();
    auto conn = std::make_unique<Connection>();
    conn->stream = std::make_shared<Stream>(std::move(accepted));
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->reader = std::thread([this, raw] { reader_loop(*raw); });
  }
  shutdown_sequence();
}

void Daemon::reader_loop(Connection& conn) {
  FrameParser parser;
  std::vector<unsigned char> buf(kReadChunk);
  bool alive = true;
  while (alive && !stopping()) {
    const long rc =
        conn.stream->recv_some(buf.data(), buf.size(), config_.poll_ms);
    if (rc == -2) continue;  // poll timeout: re-check stopping()
    if (rc <= 0) break;      // orderly EOF or socket error
    sink_.daemon.bytes_rx.inc(static_cast<std::uint64_t>(rc));
    parser.feed(buf.data(), static_cast<std::size_t>(rc));
    while (alive) {
      std::optional<Frame> frame = parser.next();
      if (!frame) break;
      sink_.daemon.frames_rx.inc();
      alive = handle_frame(conn, *frame);
    }
    if (alive && parser.failed()) {
      sink_.daemon.protocol_errors.inc();
      send_error(conn, ErrorCode::kProtocol, parser.error());
      alive = false;
    }
  }
  // Teardown: reap sessions the feeder never closed; unhook a live
  // subscription (during shutdown the hub keeps it, so the drain
  // sequence can flush the queue and send kBye instead of dropping it —
  // and the write side must stay open for that flush).
  orphan_sessions(conn);
  const bool leave_sub_to_drain = conn.sub_id != 0 && stopping();
  if (conn.sub_id != 0 && !stopping()) {
    hub_.remove(conn.sub_id, /*flush=*/false, 0);
    conn.sub_id = 0;
  }
  if (!leave_sub_to_drain) conn.stream->shutdown_both();
  sink_.daemon.connections_closed.inc();
  conn.done.store(true, std::memory_order_release);
}

bool Daemon::handle_frame(Connection& conn, const Frame& frame) {
  if (!conn.hello_done) {
    if (frame.type != MsgType::kHello) {
      sink_.daemon.protocol_errors.inc();
      send_error(conn, ErrorCode::kProtocol, "first frame must be hello");
      return false;
    }
    replay::Cursor in(frame.payload.data(), frame.payload.size());
    std::uint32_t version = 0;
    Role role{};
    if (!decode_hello(in, &version, &role)) {
      sink_.daemon.protocol_errors.inc();
      send_error(conn, ErrorCode::kProtocol, "malformed hello");
      return false;
    }
    if (version != kProtocolVersion) {
      send_error(conn, ErrorCode::kProtocol,
                 "protocol version mismatch: got " + std::to_string(version) +
                     ", serving " + std::to_string(kProtocolVersion));
      return false;
    }
    conn.hello_done = true;
    conn.role = role;
    std::vector<unsigned char> payload;
    replay::put_u32(payload, kProtocolVersion);
    return send_frame(conn, MsgType::kHelloAck, payload);
  }
  switch (conn.role) {
    case Role::kFeeder:
      return handle_feeder(conn, frame);
    case Role::kSubscriber:
      return handle_subscriber(conn, frame);
    case Role::kControl:
      return handle_control(conn, frame);
  }
  return false;
}

bool Daemon::handle_feeder(Connection& conn, const Frame& frame) {
  replay::Cursor in(frame.payload.data(), frame.payload.size());
  switch (frame.type) {
    case MsgType::kOpenSession: {
      if (stopping()) {
        send_error(conn, ErrorCode::kShuttingDown, "daemon is draining");
        return false;
      }
      std::uint64_t client_sid = 0;
      core::CsiProfile profile;
      core::TrackerConfig config;
      if (!decode_open_session(in, &client_sid, &profile, &config)) {
        sink_.daemon.protocol_errors.inc();
        send_error(conn, ErrorCode::kProtocol, "malformed open-session");
        return false;
      }
      if (conn.sessions.count(client_sid) != 0) {
        send_error(conn, ErrorCode::kProtocol,
                   "duplicate client session id");
        return false;
      }
      engine::SessionId engine_sid;
      {
        std::lock_guard<std::mutex> lk(engine_mu_);
        auto interned = engine_.add_profile(std::move(profile));
        engine_sid = engine_.create_session(std::move(interned), config);
      }
      conn.sessions.emplace(client_sid, engine_sid);
      sink_.daemon.sessions_opened.inc();
      std::vector<unsigned char> payload;
      encode_session_ack(payload, client_sid, engine_sid);
      return send_frame(conn, MsgType::kSessionAck, payload);
    }
    case MsgType::kCloseSession: {
      const std::uint64_t client_sid = in.get_u64();
      if (!in.exhausted()) {
        sink_.daemon.protocol_errors.inc();
        send_error(conn, ErrorCode::kProtocol, "malformed close-session");
        return false;
      }
      const auto it = conn.sessions.find(client_sid);
      if (it == conn.sessions.end()) {
        send_error(conn, ErrorCode::kUnknownSession,
                   "close for unknown session");
        return false;
      }
      {
        std::lock_guard<std::mutex> lk(engine_mu_);
        engine_.destroy_session(it->second);
        // A drained fleet restarts the serving clock: the next corpus
        // run against this (still warm) daemon begins at its own t=0.
        if (engine_.session_count() == 0) clock_started_ = false;
      }
      conn.sessions.erase(it);
      sink_.daemon.sessions_closed.inc();
      std::vector<unsigned char> payload;
      replay::put_u64(payload, client_sid);
      return send_frame(conn, MsgType::kSessionClosed, payload);
    }
    case MsgType::kCsi: {
      std::uint64_t client_sid = 0;
      wifi::CsiMeasurement m;
      bool offered = false;
      if (!replay::decode_csi_payload(in, &client_sid, &m, &offered) ||
          !in.exhausted()) {
        sink_.daemon.protocol_errors.inc();
        send_error(conn, ErrorCode::kProtocol, "malformed CSI frame");
        return false;
      }
      const auto it = conn.sessions.find(client_sid);
      if (it == conn.sessions.end()) {
        send_error(conn, ErrorCode::kUnknownSession,
                   "CSI for unknown session");
        return false;
      }
      sink_.daemon.feed_csi.inc();
      if (!engine_.offer_csi(it->second, m)) {
        sink_.daemon.feed_rejected.inc();
      }
      return true;
    }
    case MsgType::kImu: {
      std::uint64_t client_sid = 0;
      imu::ImuSample s;
      bool offered = false;
      if (!replay::decode_imu_payload(in, &client_sid, &s, &offered) ||
          !in.exhausted()) {
        sink_.daemon.protocol_errors.inc();
        send_error(conn, ErrorCode::kProtocol, "malformed IMU frame");
        return false;
      }
      const auto it = conn.sessions.find(client_sid);
      if (it == conn.sessions.end()) {
        send_error(conn, ErrorCode::kUnknownSession,
                   "IMU for unknown session");
        return false;
      }
      sink_.daemon.feed_imu.inc();
      if (!engine_.offer_imu(it->second, s)) {
        sink_.daemon.feed_rejected.inc();
      }
      return true;
    }
    case MsgType::kCamera: {
      std::uint64_t client_sid = 0;
      camera::CameraTracker::Estimate e;
      if (!replay::decode_camera_payload(in, &client_sid, &e) ||
          !in.exhausted()) {
        sink_.daemon.protocol_errors.inc();
        send_error(conn, ErrorCode::kProtocol, "malformed camera frame");
        return false;
      }
      const auto it = conn.sessions.find(client_sid);
      if (it == conn.sessions.end()) {
        send_error(conn, ErrorCode::kUnknownSession,
                   "camera for unknown session");
        return false;
      }
      sink_.daemon.feed_camera.inc();
      // Camera estimates are synchronous-only (no ingest ring), same as
      // the engine API they map onto.
      if (!engine_.push_camera(it->second, e)) {
        sink_.daemon.feed_rejected.inc();
      }
      return true;
    }
    case MsgType::kTick: {
      const double t = in.get_f64();
      if (!in.exhausted()) {
        sink_.daemon.protocol_errors.inc();
        send_error(conn, ErrorCode::kProtocol, "malformed tick frame");
        return false;
      }
      run_tick(t);
      return true;
    }
    default:
      send_error(conn, ErrorCode::kBadRole,
                 "frame type not valid for a feeder");
      return false;
  }
}

bool Daemon::handle_subscriber(Connection& conn, const Frame& frame) {
  replay::Cursor in(frame.payload.data(), frame.payload.size());
  switch (frame.type) {
    case MsgType::kSubscribe: {
      if (conn.sub_id != 0) {
        // Already streaming: the hub owns this socket's write side, so
        // no error frame can be sent — just drop the connection.
        return false;
      }
      SubscribeRequest req;
      if (!decode_subscribe(in, &req)) {
        sink_.daemon.protocol_errors.inc();
        send_error(conn, ErrorCode::kProtocol, "malformed subscribe");
        return false;
      }
      SubscriberOptions opts = config_.subscriber;
      if (req.has_policy) {
        opts.policy = static_cast<engine::OverloadPolicy>(req.policy);
      }
      if (req.capacity != 0) opts.capacity = req.capacity;
      // From here the hub's writer thread owns every write on this
      // socket; the reader only reads (kUnsubscribe / disconnect).
      conn.sub_id = hub_.add(conn.stream, opts);
      return true;
    }
    case MsgType::kUnsubscribe: {
      if (conn.sub_id == 0 || !in.exhausted()) return false;
      hub_.remove(conn.sub_id, /*flush=*/true, config_.drain_timeout_ms);
      conn.sub_id = 0;  // write side is the reader's again (post-kBye)
      return true;
    }
    default:
      if (conn.sub_id == 0) {
        send_error(conn, ErrorCode::kBadRole,
                   "frame type not valid for a subscriber");
      }
      return false;
  }
}

bool Daemon::handle_control(Connection& conn, const Frame& frame) {
  replay::Cursor in(frame.payload.data(), frame.payload.size());
  switch (frame.type) {
    case MsgType::kHealth: {
      if (!in.exhausted()) {
        sink_.daemon.protocol_errors.inc();
        send_error(conn, ErrorCode::kProtocol, "malformed health request");
        return false;
      }
      sink_.daemon.health_requests.inc();
      const std::string json = health_json();
      std::vector<unsigned char> payload(json.begin(), json.end());
      return send_frame(conn, MsgType::kHealthReport, payload);
    }
    case MsgType::kShutdown: {
      if (!in.exhausted()) {
        sink_.daemon.protocol_errors.inc();
        send_error(conn, ErrorCode::kProtocol, "malformed shutdown");
        return false;
      }
      sink_.daemon.shutdown_requests.inc();
      (void)send_frame(conn, MsgType::kBye, {});
      request_shutdown();
      return false;  // this connection's work is done
    }
    default:
      send_error(conn, ErrorCode::kBadRole,
                 "frame type not valid for a control client");
      return false;
  }
}

void Daemon::run_tick(double t_req) {
  std::lock_guard<std::mutex> lk(engine_mu_);
  // Monotone clamp: concurrent feeders replay independent re-based
  // clocks, and the engine's feed guards assume time never rewinds.
  // For a single feeder the clamp is the identity (its recorded tick
  // times are already monotone) — the bit-identity case.
  double t = t_req;
  if (!std::isfinite(t)) t = clock_started_ ? last_tick_t_ : 0.0;
  if (clock_started_ && t < last_tick_t_) t = last_tick_t_;
  clock_started_ = true;
  last_tick_t_ = t;

  const std::span<const core::TrackResult> results = engine_.estimate_all(t);
  const std::span<const engine::SessionId> ids = engine_.session_ids_span();
  sink_.daemon.ticks.inc();

  // Encode ONE kResults frame and fan out references; the span is only
  // valid until the next churn call, which this same mutex serializes.
  auto frame = std::make_shared<std::vector<unsigned char>>();
  std::vector<unsigned char> payload;
  encode_results(payload, t, ids.data(), results.data(), results.size());
  append_frame(*frame, MsgType::kResults, payload);
  hub_.broadcast(frame);
}

void Daemon::send_error(Connection& conn, ErrorCode code,
                        const std::string& message) {
  if (conn.sub_id != 0) return;  // hub owns the write side
  std::vector<unsigned char> payload;
  encode_error(payload, code, message);
  (void)send_frame(conn, MsgType::kError, payload);
}

bool Daemon::send_frame(Connection& conn, MsgType type,
                        const std::vector<unsigned char>& payload) {
  std::vector<unsigned char> bytes;
  bytes.reserve(frame_overhead() + payload.size());
  append_frame(bytes, type, payload);
  if (!conn.stream->send_all(bytes.data(), bytes.size())) return false;
  sink_.daemon.bytes_tx.inc(bytes.size());
  return true;
}

void Daemon::orphan_sessions(Connection& conn) {
  if (conn.sessions.empty()) return;
  std::lock_guard<std::mutex> lk(engine_mu_);
  for (const auto& [client_sid, engine_sid] : conn.sessions) {
    engine_.destroy_session(engine_sid);
    sink_.daemon.sessions_orphaned.inc();
  }
  if (engine_.session_count() == 0) clock_started_ = false;
  conn.sessions.clear();
}

void Daemon::reap_finished_connections() {
  std::lock_guard<std::mutex> lk(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::shutdown_sequence() {
  // 1. Stop accepting (also unlinks the socket path).
  listener_.close();
  // 2. Kick every reader out of recv (they also poll stopping()).
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& conn : conns_) conn->stream->shutdown_read();
  }
  // 3. Join readers; feeder teardown reaps orphaned sessions.
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->reader.joinable()) conn->reader.join();
    }
  }
  // 4. Apply whatever is still queued in the ingest rings, so the
  //    engine tier is quiescent and consistent.
  engine_.drain();
  // 5. Flush subscriber queues against the drain budget; each stream
  //    ends with kBye.
  hub_.shutdown_all(config_.drain_timeout_ms);
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.clear();
  }
}

std::string Daemon::health_json() {
  // No engine_mu_ here: a kBlock tick holds it through the broadcast,
  // while session_count() takes only the roster lock a tick holds shared.
  std::ostringstream os;
  os << "{\n  \"daemon\": {\"sessions\": " << engine_.session_count()
     << ", \"subscribers\": " << hub_.size()
     << ", \"stopping\": " << (stopping() ? "true" : "false") << "},\n"
     << "  \"metrics\": ";
  obs::Registry registry;
  sink_.attach_to(registry);
  std::ostringstream metrics;
  registry.write_json(metrics);
  os << metrics.str() << "\n}\n";
  return os.str();
}

}  // namespace vihot::daemon
