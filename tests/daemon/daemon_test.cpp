// vihotd end-to-end tests (ctest label: daemon; re-run under tsan).
//
// Each test boots a real Daemon on a private abstract-pathed unix
// socket and talks to it over the wire — the same path production
// clients take. The robustness cases pin the headline contract: a
// hostile or dying CLIENT costs that client its connection, never the
// daemon, never the tick loop, and never another client's stream. The
// determinism case replays a golden corpus log through the daemon and
// bit-compares every streamed TrackResult against the recording.
#include "daemon/daemon.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/stability.h"
#include "daemon/client.h"
#include "daemon/loadgen.h"
#include "daemon/protocol.h"
#include "replay/replayer.h"
#include "replay/vrlog.h"
#include "tests/core/test_helpers.h"

namespace vihot::daemon {
namespace {

std::string corpus_log(const char* name) {
  return std::string(VIHOT_CORPUS_DIR) + "/" + name;
}

/// Boots a daemon on a unique temp socket; serves on a background
/// thread until the fixture (or the test, via shutdown paths) stops it.
class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override { boot({}); }

  void boot(DaemonConfig config) {
    static std::atomic<int> counter{0};
    socket_path_ = (std::filesystem::temp_directory_path() /
                    ("vihotd-test-" + std::to_string(::getpid()) + "-" +
                     std::to_string(counter.fetch_add(1)) + ".sock"))
                       .string();
    config.socket_path = socket_path_;
    daemon_ = std::make_unique<Daemon>(config);
    ASSERT_TRUE(daemon_->start()) << daemon_->error();
    serve_thread_ = std::thread([this] { daemon_->serve(); });
  }

  void TearDown() override {
    if (daemon_) daemon_->request_shutdown();
    if (serve_thread_.joinable()) serve_thread_.join();
    daemon_.reset();
  }

  /// The daemon must still be fully alive: a fresh control client can
  /// complete the handshake and read health.
  void expect_daemon_alive() {
    Client control = Client::connect(socket_path_, Role::kControl);
    ASSERT_TRUE(control.ok()) << control.error();
    const auto health = control.health();
    ASSERT_TRUE(health.has_value()) << control.error();
    EXPECT_NE(health->find("\"daemon\""), std::string::npos);
  }

  /// Feeds one session + one tick so there is real engine state.
  void open_and_tick(Client& feeder, std::uint64_t client_sid = 1) {
    std::uint64_t global_sid = 0;
    ASSERT_TRUE(feeder.open_session(client_sid,
                                    core::testing::synthetic_profile(2), {},
                                    &global_sid))
        << feeder.error();
    EXPECT_NE(global_sid, 0u);
    ASSERT_TRUE(feeder.send_tick(0.01));
  }

  std::string socket_path_;
  std::unique_ptr<Daemon> daemon_;
  std::thread serve_thread_;
};

// --------------------------------------------------------- happy path

TEST_F(DaemonTest, HealthReportsDaemonAndMetricsSections) {
  Client control = Client::connect(socket_path_, Role::kControl);
  ASSERT_TRUE(control.ok()) << control.error();
  const auto health = control.health();
  ASSERT_TRUE(health.has_value());
  EXPECT_NE(health->find("\"daemon\""), std::string::npos);
  EXPECT_NE(health->find("\"sessions\""), std::string::npos);
  EXPECT_NE(health->find("\"metrics\""), std::string::npos);
}

TEST_F(DaemonTest, SubscriberReceivesTickBroadcast) {
  Client sub = Client::connect(socket_path_, Role::kSubscriber);
  ASSERT_TRUE(sub.ok()) << sub.error();
  ASSERT_TRUE(sub.subscribe());

  Client feeder = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(feeder.ok()) << feeder.error();
  open_and_tick(feeder);

  const auto frame = sub.next_results();
  ASSERT_TRUE(frame.has_value()) << sub.error();
  ASSERT_EQ(frame->ids.size(), 1u);
  EXPECT_EQ(frame->results.size(), 1u);
}

TEST_F(DaemonTest, SubscribeReturnsOnlyOnceRegistered) {
  // subscribe() waits for the hub's ack, so a tick from another
  // connection right after it returns cannot miss this subscriber.
  Client sub = Client::connect(socket_path_, Role::kSubscriber);
  ASSERT_TRUE(sub.ok()) << sub.error();
  ASSERT_TRUE(sub.subscribe()) << sub.error();
  EXPECT_EQ(daemon_->subscriber_count(), 1u);
}

/// One counter from the daemon's health JSON.
std::uint64_t health_counter(const std::string& socket_path,
                             const std::string& name) {
  Client control = Client::connect(socket_path, Role::kControl);
  const auto health = control.health();
  if (!health) return 0;
  const std::string key = "\"" + name + "\": ";
  const auto pos = health->find(key);
  if (pos == std::string::npos) return 0;
  return std::stoull(health->substr(pos + key.size()));
}

TEST_F(DaemonTest, HostileTimestampFeederStaysBounded) {
  // Equal and nanosecond-spaced CSI timestamps defeat the time-based
  // history trims; through the daemon the sample caps still bound the
  // session, count what they drop, and the daemon keeps serving. A
  // clean-rate session drops nothing. Each phase feeds its own session
  // and ends with close_session, whose ack orders it after every frame
  // and tick the phase sent.
  Client feeder = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(feeder.ok()) << feeder.error();
  const auto profile = core::testing::synthetic_profile(2);
  wifi::CsiMeasurement m;
  m.h[0].assign(4, std::polar(1.0, 0.3));
  m.h[1].assign(4, {1.0, 0.0});
  const core::TrackerConfig config;
  const std::size_t history_cap = core::csi_history_cap(
      config.matcher.window_s * config.matcher.max_length_factor +
      config.stability.window_s + 1.5);
  // Past twice the history cap, so the history itself drops samples too.
  const int frames = static_cast<int>(2 * history_cap) + 2048;
  // Ticks drain the rings well before the daemon's ring capacity.
  constexpr int kTickEvery = 512;
  const std::string capped = "tracker.csi_history_capped";
  std::uint64_t global_sid = 0;

  ASSERT_TRUE(feeder.open_session(1, profile, {}, &global_sid));
  for (int i = 0; i < 10000; ++i) {  // 20 s at 500 Hz
    m.t = 0.002 * static_cast<double>(i);
    ASSERT_TRUE(feeder.send_csi(1, m));
    if (i % 50 == 49) {
      ASSERT_TRUE(feeder.send_tick(m.t));
    }
  }
  ASSERT_TRUE(feeder.close_session(1)) << feeder.error();
  EXPECT_EQ(health_counter(socket_path_, capped), 0u);

  const double t0 = m.t + 1.0;
  ASSERT_TRUE(feeder.open_session(2, profile, {}, &global_sid));
  for (int i = 0; i < frames; ++i) {
    m.t = t0;
    ASSERT_TRUE(feeder.send_csi(2, m));
    if (i % kTickEvery == kTickEvery - 1) {
      ASSERT_TRUE(feeder.send_tick(t0));
    }
  }
  ASSERT_TRUE(feeder.send_tick(t0));
  ASSERT_TRUE(feeder.close_session(2)) << feeder.error();
  const std::uint64_t after_equal = health_counter(socket_path_, capped);
  EXPECT_GE(after_equal, static_cast<std::uint64_t>(frames) - history_cap);

  ASSERT_TRUE(feeder.open_session(3, profile, {}, &global_sid));
  for (int i = 1; i <= frames; ++i) {
    m.t = t0 + 1e-9 * static_cast<double>(i);
    ASSERT_TRUE(feeder.send_csi(3, m));
    if (i % kTickEvery == 0) {
      ASSERT_TRUE(feeder.send_tick(m.t));
    }
  }
  ASSERT_TRUE(feeder.send_tick(m.t));
  ASSERT_TRUE(feeder.close_session(3)) << feeder.error();
  EXPECT_GE(health_counter(socket_path_, capped),
            after_equal + static_cast<std::uint64_t>(frames) - history_cap);
  expect_daemon_alive();
}

TEST_F(DaemonTest, CorpusReplayIsBitIdenticalThroughTheDaemon) {
  // The tentpole acceptance gate, in-process: a recorded drive pushed
  // through socket -> ingress -> fleet -> fan-out must reproduce every
  // recorded TrackResult byte for byte.
  const replay::LoadedLog log =
      replay::LoadedLog::load(corpus_log("baseline.vrlog"));
  ASSERT_TRUE(log.ok()) << log.error();
  LoadgenOptions options;
  options.socket_path = socket_path_;
  const VerifyStats st = verify_against_daemon(log, options);
  EXPECT_TRUE(st.ok) << st.error << " " << st.first_mismatch;
  EXPECT_GT(st.ticks_compared, 0u);
  EXPECT_GT(st.results_compared, 0u);
  EXPECT_EQ(st.mismatches, 0u);
}

TEST_F(DaemonTest, SequentialCorpusRunsEachStartFresh) {
  // The monotone tick clamp resets when the fleet empties: a second
  // recording (with its own t=0 clock) verified against a WARM daemon
  // must still be bit-identical.
  for (const char* name : {"baseline.vrlog", "steering.vrlog"}) {
    SCOPED_TRACE(name);
    const replay::LoadedLog log = replay::LoadedLog::load(corpus_log(name));
    ASSERT_TRUE(log.ok()) << log.error();
    LoadgenOptions options;
    options.socket_path = socket_path_;
    const VerifyStats st = verify_against_daemon(log, options);
    EXPECT_TRUE(st.ok) << st.error << " " << st.first_mismatch;
  }
}

// ---------------------------------------------------------- hostility

TEST_F(DaemonTest, GarbageBytesCostOnlyTheOffendingConnection) {
  Client evil = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(evil.ok()) << evil.error();
  std::vector<unsigned char> junk(256, 0x5A);
  evil.send_raw(junk.data(), junk.size());
  evil.close();
  expect_daemon_alive();
}

TEST_F(DaemonTest, CrcCorruptFrameDropsTheConnection) {
  Client evil = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(evil.ok()) << evil.error();
  std::vector<unsigned char> bytes;
  std::vector<unsigned char> payload;
  replay::put_f64(payload, 1.0);
  append_frame(bytes, MsgType::kTick, payload);
  bytes[bytes.size() - 1] ^= 0xFF;  // corrupt the CRC itself
  evil.send_raw(bytes.data(), bytes.size());
  evil.close();
  expect_daemon_alive();
}

TEST_F(DaemonTest, OversizedLengthFieldDropsTheConnection) {
  Client evil = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(evil.ok()) << evil.error();
  std::vector<unsigned char> header;
  replay::put_u32(header, static_cast<std::uint32_t>(MsgType::kCsi));
  replay::put_u32(header, 0x7FFFFFFFu);
  evil.send_raw(header.data(), header.size());
  evil.close();
  expect_daemon_alive();
}

TEST_F(DaemonTest, MidFrameDisconnectLeavesTheDaemonServing) {
  Client evil = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(evil.ok()) << evil.error();
  std::vector<unsigned char> bytes;
  std::vector<unsigned char> payload;
  replay::put_f64(payload, 1.0);
  append_frame(bytes, MsgType::kTick, payload);
  evil.send_raw(bytes.data(), bytes.size() / 2);  // half a valid frame
  evil.close();
  expect_daemon_alive();
}

TEST_F(DaemonTest, FrameBeforeHelloIsAProtocolError) {
  Stream raw = Stream::connect_unix(socket_path_);
  ASSERT_TRUE(raw.valid());
  std::vector<unsigned char> bytes;
  std::vector<unsigned char> payload;
  replay::put_f64(payload, 1.0);
  append_frame(bytes, MsgType::kTick, payload);
  ASSERT_TRUE(raw.send_all(bytes.data(), bytes.size()));

  // The daemon answers kError(kProtocol) and closes.
  FrameParser parser;
  unsigned char buf[512];
  bool got_error = false;
  for (int spins = 0; spins < 100 && !got_error; ++spins) {
    const long n = raw.recv_some(buf, sizeof buf, 200);
    if (n <= 0 && n != -2) break;
    if (n > 0) parser.feed(buf, static_cast<std::size_t>(n));
    while (auto f = parser.next()) {
      if (f->type != MsgType::kError) continue;
      replay::Cursor in(f->payload.data(), f->payload.size());
      ErrorCode code{};
      std::string message;
      ASSERT_TRUE(decode_error(in, &code, &message));
      EXPECT_EQ(code, ErrorCode::kProtocol);
      got_error = true;
    }
  }
  EXPECT_TRUE(got_error);
  expect_daemon_alive();
}

TEST_F(DaemonTest, VersionMismatchIsRejected) {
  Stream raw = Stream::connect_unix(socket_path_);
  ASSERT_TRUE(raw.valid());
  std::vector<unsigned char> payload;
  replay::put_u32(payload, kProtocolVersion + 7);
  replay::put_u8(payload, static_cast<std::uint8_t>(Role::kFeeder));
  std::vector<unsigned char> bytes;
  append_frame(bytes, MsgType::kHello, payload);
  ASSERT_TRUE(raw.send_all(bytes.data(), bytes.size()));

  // No kHelloAck may arrive — only kError and/or EOF.
  FrameParser parser;
  unsigned char buf[512];
  for (int spins = 0; spins < 100; ++spins) {
    const long n = raw.recv_some(buf, sizeof buf, 200);
    if (n == 0 || n == -1) break;
    if (n > 0) parser.feed(buf, static_cast<std::size_t>(n));
    while (auto f = parser.next()) {
      EXPECT_NE(f->type, MsgType::kHelloAck) << "mismatched hello acked";
    }
  }
  expect_daemon_alive();
}

TEST_F(DaemonTest, RoleIsEnforcedPerFrameType) {
  // A subscriber sending feeder verbs gets kBadRole and is dropped.
  Client sub = Client::connect(socket_path_, Role::kSubscriber);
  ASSERT_TRUE(sub.ok()) << sub.error();
  std::vector<unsigned char> bytes;
  std::vector<unsigned char> payload;
  replay::put_f64(payload, 1.0);
  append_frame(bytes, MsgType::kTick, payload);
  ASSERT_TRUE(sub.send_raw(bytes.data(), bytes.size()));

  FrameParser parser;
  unsigned char buf[512];
  bool got_bad_role = false;
  for (int spins = 0; spins < 100 && !got_bad_role; ++spins) {
    const long n = sub.stream().recv_some(buf, sizeof buf, 200);
    if (n <= 0 && n != -2) break;
    if (n > 0) parser.feed(buf, static_cast<std::size_t>(n));
    while (auto f = parser.next()) {
      if (f->type != MsgType::kError) continue;
      replay::Cursor in(f->payload.data(), f->payload.size());
      ErrorCode code{};
      std::string message;
      ASSERT_TRUE(decode_error(in, &code, &message));
      EXPECT_EQ(code, ErrorCode::kBadRole);
      got_bad_role = true;
    }
  }
  EXPECT_TRUE(got_bad_role);
  expect_daemon_alive();
}

TEST_F(DaemonTest, FeedForUnknownSessionIsRejected) {
  Client feeder = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(feeder.ok()) << feeder.error();
  wifi::CsiMeasurement m;
  m.t = 0.0;
  ASSERT_TRUE(feeder.send_csi(/*client_sid=*/99, m));

  FrameParser parser;
  unsigned char buf[512];
  bool got_unknown = false;
  for (int spins = 0; spins < 100 && !got_unknown; ++spins) {
    const long n = feeder.stream().recv_some(buf, sizeof buf, 200);
    if (n <= 0 && n != -2) break;
    if (n > 0) parser.feed(buf, static_cast<std::size_t>(n));
    while (auto f = parser.next()) {
      if (f->type != MsgType::kError) continue;
      replay::Cursor in(f->payload.data(), f->payload.size());
      ErrorCode code{};
      std::string message;
      ASSERT_TRUE(decode_error(in, &code, &message));
      EXPECT_EQ(code, ErrorCode::kUnknownSession);
      got_unknown = true;
    }
  }
  EXPECT_TRUE(got_unknown);
  expect_daemon_alive();
}

TEST_F(DaemonTest, MalformedProfileIsAMalformedOpenSession) {
  // A hostile profile costs its sender the session and the connection,
  // lands in daemon.protocol_errors, and leaves the other feeders and
  // the tick loop serving.
  Client good = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(good.ok()) << good.error();
  open_and_tick(good);
  const std::uint64_t errors_before =
      daemon_->sink().daemon.protocol_errors.value();
  const auto hostile = core::testing::hostile_profiles();
  for (const auto& [name, profile] : hostile) {
    Client bad = Client::connect(socket_path_, Role::kFeeder);
    ASSERT_TRUE(bad.ok()) << bad.error();
    std::uint64_t global_sid = 0;
    EXPECT_FALSE(bad.open_session(1, profile, {}, &global_sid)) << name;
    EXPECT_NE(bad.error().find("malformed open-session"), std::string::npos)
        << name << ": " << bad.error();
  }
  EXPECT_EQ(daemon_->sink().daemon.protocol_errors.value(),
            errors_before + hostile.size());
  ASSERT_TRUE(good.send_tick(0.02)) << good.error();
  expect_daemon_alive();
}

TEST_F(DaemonTest, DuplicateClientSessionIdIsRejected) {
  Client feeder = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(feeder.ok()) << feeder.error();
  std::uint64_t global_sid = 0;
  const auto profile = core::testing::synthetic_profile(2);
  ASSERT_TRUE(feeder.open_session(1, profile, {}, &global_sid));
  EXPECT_FALSE(feeder.open_session(1, profile, {}, &global_sid));
  expect_daemon_alive();
}

TEST_F(DaemonTest, OrphanedSessionsAreReaped) {
  {
    Client feeder = Client::connect(socket_path_, Role::kFeeder);
    ASSERT_TRUE(feeder.ok()) << feeder.error();
    std::uint64_t global_sid = 0;
    const auto profile = core::testing::synthetic_profile(2);
    ASSERT_TRUE(feeder.open_session(1, profile, {}, &global_sid));
    ASSERT_TRUE(feeder.open_session(2, profile, {}, &global_sid));
    EXPECT_EQ(daemon_->engine().session_count(), 2u);
    feeder.close();  // vanish without kCloseSession
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon_->engine().session_count() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(daemon_->engine().session_count(), 0u);
  expect_daemon_alive();
}

// ------------------------------------------------------- backpressure

class DaemonBackpressureTest
    : public DaemonTest,
      public ::testing::WithParamInterface<engine::OverloadPolicy> {};

TEST_P(DaemonBackpressureTest, SlowSubscriberNeverStallsTheTickLoop) {
  // A subscriber with a 2-deep queue that NEVER reads. Once the kernel
  // socket buffer fills, the writer thread wedges in send_all, the
  // queue hits capacity, and the overload policy must shed — visibly,
  // in the daemon's drop/timeout counters — while the tick loop keeps
  // serving (kBlock's wait is bounded by block_timeout_ms).
  Client sub = Client::connect(socket_path_, Role::kSubscriber);
  ASSERT_TRUE(sub.ok()) << sub.error();
  SubscribeRequest req;
  req.has_policy = true;
  req.policy = static_cast<std::uint8_t>(GetParam());
  req.capacity = 2;
  ASSERT_TRUE(sub.subscribe(req));

  Client feeder = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(feeder.ok()) << feeder.error();
  // Enough sessions to make each kResults frame kilobytes — the socket
  // buffer must fill within a bounded number of ticks.
  const auto profile = core::testing::synthetic_profile(2);
  for (std::uint64_t sid = 1; sid <= 16; ++sid) {
    std::uint64_t global_sid = 0;
    ASSERT_TRUE(feeder.open_session(sid, profile, {}, &global_sid));
  }

  const auto shed = [&] {
    const auto& d = daemon_->sink().daemon;
    return d.sub_dropped_oldest.value() + d.sub_dropped_newest.value() +
           d.sub_block_timeouts.value();
  };
  // Pace the feeder on the ticks the daemon has served, so only a few
  // are ever in flight: unpaced, hundreds of queued ticks fit the feeder
  // socket before the first shed is visible, and under kBlock each is
  // then served behind its own block_timeout_ms wait.
  constexpr std::uint64_t kInFlight = 4;
  const obs::Counter& served = daemon_->sink().daemon.ticks;
  const std::uint64_t served0 = served.value();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < 4000 && shed() == 0; ++k) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (served.value() - served0 + kInFlight < k) {
      ASSERT_LT(std::chrono::steady_clock::now(), give_up)
          << "daemon stopped serving ticks: " << served.value() - served0
          << " of " << k << " sent";
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_TRUE(feeder.send_tick(0.01 * static_cast<double>(k + 1)));
  }
  EXPECT_GT(shed(), 0u) << "unread subscriber never overflowed";
  // Round-trip through a control client proves the daemon still serves.
  expect_daemon_alive();
  // A stalled tick loop hangs forever; anything bounded passes. 60s of
  // slack keeps this meaningful but unflaky on slow CI.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(60));
}

INSTANTIATE_TEST_SUITE_P(Policies, DaemonBackpressureTest,
                         ::testing::Values(engine::OverloadPolicy::kBlock,
                                           engine::OverloadPolicy::kDropOldest,
                                           engine::OverloadPolicy::kDropNewest));

// --------------------------------------------------------------- churn

TEST_F(DaemonTest, SubscribeUnsubscribeChurnUnderLoad) {
  // Subscribers connecting/leaving (both politely and by vanishing)
  // while a feeder drives ticks: no crash, no stall, and the daemon
  // ends with zero registered subscribers.
  std::atomic<bool> stop{false};
  std::thread feeder_thread([&] {
    Client feeder = Client::connect(socket_path_, Role::kFeeder);
    if (!feeder.ok()) return;
    std::uint64_t global_sid = 0;
    if (!feeder.open_session(1, core::testing::synthetic_profile(2), {},
                             &global_sid)) {
      return;
    }
    double t = 0.0;
    while (!stop.load(std::memory_order_acquire)) {
      if (!feeder.send_tick(t += 0.01)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    feeder.close_session(1);
  });

  std::vector<std::thread> churners;
  for (int c = 0; c < 3; ++c) {
    churners.emplace_back([&, c] {
      for (int round = 0; round < 15; ++round) {
        Client sub = Client::connect(socket_path_, Role::kSubscriber);
        if (!sub.ok()) continue;
        if (!sub.subscribe()) continue;
        (void)sub.next_results(200);
        if ((round + c) % 2 == 0) {
          sub.unsubscribe();  // polite leave
        }
        sub.close();  // or just vanish
      }
    });
  }
  for (std::thread& t : churners) t.join();
  stop.store(true, std::memory_order_release);
  feeder_thread.join();

  expect_daemon_alive();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon_->subscriber_count() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(daemon_->subscriber_count(), 0u);
}

// ------------------------------------------------------------ shutdown

TEST_F(DaemonTest, ControlShutdownDrainsSubscribersWithBye) {
  Client sub = Client::connect(socket_path_, Role::kSubscriber);
  ASSERT_TRUE(sub.ok()) << sub.error();
  ASSERT_TRUE(sub.subscribe());

  Client feeder = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(feeder.ok()) << feeder.error();
  open_and_tick(feeder);
  ASSERT_TRUE(sub.next_results().has_value()) << sub.error();

  Client control = Client::connect(socket_path_, Role::kControl);
  ASSERT_TRUE(control.ok()) << control.error();
  EXPECT_TRUE(control.shutdown_daemon()) << control.error();
  serve_thread_.join();

  // The drain ends the subscriber's stream with an explicit kBye.
  while (sub.next_results(2000).has_value()) {
  }
  EXPECT_TRUE(sub.saw_bye());

  // Socket unlinked: nothing is listening anymore.
  EXPECT_FALSE(std::filesystem::exists(socket_path_));
}

TEST_F(DaemonTest, ShutdownRejectsNewSessions) {
  Client feeder = Client::connect(socket_path_, Role::kFeeder);
  ASSERT_TRUE(feeder.ok()) << feeder.error();
  daemon_->request_shutdown();
  serve_thread_.join();
  // Whatever the teardown race delivered (error frame or EOF), the open
  // must FAIL — no session may be created during a drain.
  std::uint64_t global_sid = 0;
  EXPECT_FALSE(feeder.open_session(1, core::testing::synthetic_profile(2), {},
                                   &global_sid, /*timeout_ms=*/2000));
}

}  // namespace
}  // namespace vihot::daemon
