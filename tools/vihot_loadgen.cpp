// vihot_loadgen: replay-driven load and verification for vihotd.
//
//   vihot_loadgen verify --socket PATH --log LOG.vrlog
//       drive the log through a running daemon (one feeder + one
//       subscriber) and bit-compare every streamed TrackResult against
//       the recorded one; exit 0 only on a byte-exact match
//
//   vihot_loadgen soak --socket PATH --log LOG.vrlog [--replicas N]
//       [--subscribers M] [--spacing S] [--offset S]
//       [--disconnect-replicas K] [--disconnect-after E]
//       [--slow-subscriber-ms D] [--sub-policy P] [--sub-capacity N]
//       replay the log as N concurrent re-based feeder replicas plus M
//       streaming subscribers; K extra chaos replicas disconnect
//       mid-frame after E protocol events; exit 0 when every
//       well-behaved replica drove cleanly and every subscriber ended
//       cleanly
//
// Replica r re-bases all timestamps by offset + r * spacing (one shared
// additive delta per replica — the order-preserving re-basing the
// replay layer's --at-offset uses).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "daemon/loadgen.h"
#include "util/parse_number.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s verify --socket PATH --log LOG.vrlog [--timeout-ms N]\n"
      "       %s soak --socket PATH --log LOG.vrlog [options]\n"
      "  --replicas N            concurrent feeder replicas (default 1)\n"
      "  --subscribers M         streaming subscribers (default 1)\n"
      "  --spacing S             seconds between replica clocks "
      "(default 1000)\n"
      "  --offset S              base re-basing offset (default 0)\n"
      "  --disconnect-replicas K chaos replicas that vanish mid-frame "
      "(default 0)\n"
      "  --disconnect-after E    protocol events before a chaos replica "
      "vanishes (default 5)\n"
      "  --slow-subscriber-ms D  read delay of the LAST subscriber "
      "(default 0)\n"
      "  --sub-policy P          block|drop-oldest|drop-newest\n"
      "  --sub-capacity N        subscriber queue override\n"
      "  --timeout-ms N          ack/result wait budget (default 10000)\n",
      argv0, argv0);
  std::exit(2);
}

bool parse_policy_u8(const char* s, std::uint8_t* out) {
  if (std::strcmp(s, "block") == 0) {
    *out = 0;
  } else if (std::strcmp(s, "drop-oldest") == 0) {
    *out = 1;
  } else if (std::strcmp(s, "drop-newest") == 0) {
    *out = 2;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vihot;
  if (argc < 2) usage(argv[0]);
  const std::string mode = argv[1];
  if (mode != "verify" && mode != "soak") {
    std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
    usage(argv[0]);
  }

  daemon::LoadgenOptions options;
  std::string log_path;
  std::size_t replicas = 1;
  std::size_t subscribers = 1;
  std::size_t disconnect_replicas = 0;
  std::uint64_t disconnect_after = 5;
  int slow_subscriber_ms = 0;
  daemon::SubscribeRequest sub_req;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Each replica and subscriber is one thread.
    const auto count_arg = [&] {
      return util::flag_number<std::size_t>(argc, argv, i, 0, 1024, usage);
    };
    if (a == "--socket") {
      options.socket_path = next();
    } else if (a == "--log") {
      log_path = next();
    } else if (a == "--replicas") {
      replicas = count_arg();
    } else if (a == "--subscribers") {
      subscribers = count_arg();
    } else if (a == "--spacing") {
      options.replica_spacing =
          util::flag_number(argc, argv, i, 0.0, 1e9, usage);
    } else if (a == "--offset") {
      options.base_offset = util::flag_number(argc, argv, i, -1e9, 1e9, usage);
    } else if (a == "--disconnect-replicas") {
      disconnect_replicas = count_arg();
    } else if (a == "--disconnect-after") {
      disconnect_after = util::flag_number<std::uint64_t>(
          argc, argv, i, 0, UINT64_MAX, usage);
    } else if (a == "--slow-subscriber-ms") {
      slow_subscriber_ms = util::flag_number(argc, argv, i, 0, 60000, usage);
    } else if (a == "--sub-policy") {
      if (!parse_policy_u8(next(), &sub_req.policy)) usage(argv[0]);
      sub_req.has_policy = true;
    } else if (a == "--sub-capacity") {
      sub_req.capacity = util::flag_number<std::uint32_t>(
          argc, argv, i, 0, UINT32_MAX, usage);
    } else if (a == "--timeout-ms") {
      options.timeout_ms = util::flag_number(argc, argv, i, 1, 3600000, usage);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(argv[0]);
    }
  }
  if (options.socket_path.empty() || log_path.empty()) {
    std::fprintf(stderr, "--socket and --log are required\n");
    usage(argv[0]);
  }

  const replay::LoadedLog log = replay::LoadedLog::load(log_path);
  if (!log.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", log_path.c_str(),
                 log.error().c_str());
    return 1;
  }

  if (mode == "verify") {
    const daemon::VerifyStats st =
        daemon::verify_against_daemon(log, options);
    if (!st.ok) {
      std::fprintf(stderr, "verify FAILED: %s\n", st.error.c_str());
      if (!st.first_mismatch.empty()) {
        std::fprintf(stderr, "  first mismatch: %s\n",
                     st.first_mismatch.c_str());
      }
      return 1;
    }
    std::printf(
        "%s: %llu ticks, %llu results, daemon output bit-identical\n",
        log_path.c_str(),
        static_cast<unsigned long long>(st.ticks_compared),
        static_cast<unsigned long long>(st.results_compared));
    return 0;
  }

  // Soak: subscribers first (so no tick goes unobserved), then feeder
  // replicas — well-behaved ones and chaos ones that vanish mid-frame.
  std::atomic<bool> stop{false};
  std::vector<daemon::SubscribeStats> sub_stats(subscribers);
  std::vector<std::thread> sub_threads;
  sub_threads.reserve(subscribers);
  for (std::size_t s = 0; s < subscribers; ++s) {
    // Only the LAST subscriber is slow: one laggard must not hold back
    // the others — that isolation is what the soak asserts.
    const int delay =
        (s + 1 == subscribers) ? slow_subscriber_ms : 0;
    sub_threads.emplace_back([&, s, delay] {
      sub_stats[s] = daemon::run_subscriber(options, sub_req, delay, stop);
    });
  }

  const std::size_t total_replicas = replicas + disconnect_replicas;
  std::vector<daemon::DriveStats> drive_stats(total_replicas);
  std::vector<std::thread> feeders;
  feeders.reserve(total_replicas);
  for (std::size_t r = 0; r < total_replicas; ++r) {
    daemon::LoadgenOptions ropt = options;
    if (r >= replicas) ropt.disconnect_after = disconnect_after;
    const double delta =
        options.base_offset +
        static_cast<double>(r) * options.replica_spacing;
    feeders.emplace_back([&, ropt, delta, r] {
      drive_stats[r] = daemon::drive_replica(log, ropt, delta);
    });
  }
  for (std::thread& t : feeders) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : sub_threads) t.join();

  int rc = 0;
  std::uint64_t feeds = 0;
  std::uint64_t ticks = 0;
  for (std::size_t r = 0; r < total_replicas; ++r) {
    const daemon::DriveStats& st = drive_stats[r];
    feeds += st.feeds_sent;
    ticks += st.ticks_sent;
    if (!st.ok) {
      std::fprintf(stderr, "replica %zu FAILED: %s\n", r,
                   st.error.c_str());
      rc = 1;
    } else if (r >= replicas && !st.disconnected) {
      std::fprintf(stderr, "chaos replica %zu never disconnected\n", r);
      rc = 1;
    }
  }
  std::uint64_t frames = 0;
  for (std::size_t s = 0; s < subscribers; ++s) {
    frames += sub_stats[s].frames_received;
    if (!sub_stats[s].ok) {
      std::fprintf(stderr, "subscriber %zu FAILED: %s\n", s,
                   sub_stats[s].error.c_str());
      rc = 1;
    }
  }
  std::printf(
      "soak: %zu replica(s) (+%zu chaos), %zu subscriber(s): "
      "%llu feeds, %llu ticks sent, %llu result frames received -> %s\n",
      replicas, disconnect_replicas, subscribers,
      static_cast<unsigned long long>(feeds),
      static_cast<unsigned long long>(ticks),
      static_cast<unsigned long long>(frames), rc == 0 ? "OK" : "FAILED");
  return rc;
}
