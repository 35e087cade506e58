// vihotd: the tracking-as-a-service daemon.
//
//   vihotd --socket PATH [--threads K] [--ingest-capacity N]
//          [--ingest-policy block|drop-oldest|drop-newest]
//          [--sub-capacity N] [--sub-policy ...]
//          [--drain-timeout-ms N] [--health-on-exit PATH]
//
// Serves the sessions of one TrackerEngine over a local socket
// (protocol in src/daemon/protocol.h): feeders stream CSI/IMU/camera
// and tick the clock, subscribers receive every tick's TrackResults, a
// control client can read health JSON or request shutdown. SIGTERM/SIGINT
// drain gracefully: stop accepting, reap feeders, flush subscriber
// queues (terminating each stream with kBye), exit 0.

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "daemon/daemon.h"
#include "engine/ingest_ring.h"
#include "util/parse_number.h"

namespace {

vihot::daemon::Daemon* g_daemon = nullptr;

void on_signal(int) {
  // Async-signal-safe: a single atomic store; serve() notices within
  // its poll interval.
  if (g_daemon != nullptr) g_daemon->request_shutdown();
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH [options]\n"
      "  --threads K             engine worker threads, at most 1024 "
      "(default 0 = inline)\n"
      "  --ingest-capacity N     per-session ingest ring size, at most "
      "1048576 (default 8192)\n"
      "  --ingest-policy P       block|drop-oldest|drop-newest (default "
      "drop-oldest)\n"
      "  --sub-capacity N        subscriber queue frames, at most 1048576 "
      "(default 64)\n"
      "  --sub-policy P          subscriber overflow policy (default "
      "drop-oldest)\n"
      "  --drain-timeout-ms N    subscriber flush budget at shutdown "
      "(default 2000)\n"
      "  --health-on-exit PATH   write a final health JSON before exit\n",
      argv0);
  std::exit(2);
}

bool parse_policy(const char* s, vihot::engine::OverloadPolicy* out) {
  if (std::strcmp(s, "block") == 0) {
    *out = vihot::engine::OverloadPolicy::kBlock;
  } else if (std::strcmp(s, "drop-oldest") == 0) {
    *out = vihot::engine::OverloadPolicy::kDropOldest;
  } else if (std::strcmp(s, "drop-newest") == 0) {
    *out = vihot::engine::OverloadPolicy::kDropNewest;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vihot;
  daemon::DaemonConfig config;
  std::string health_on_exit;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Numeric flags parse strictly: a bad value, or one outside
    // [0, max], exits 2.
    const auto num_arg = [&](auto max, decltype(max)* out) {
      const char* v = next();
      if (!util::parse_number(v, decltype(max){0}, max, out)) {
        std::fprintf(stderr, "bad value for %s: %s\n", a.c_str(), v);
        usage(argv[0]);
      }
    };
    if (a == "--socket") {
      config.socket_path = next();
    } else if (a == "--threads") {
      num_arg(std::size_t{1024}, &config.threads);
    } else if (a == "--ingest-capacity") {
      num_arg(engine::kMaxIngestCapacity, &config.ingest_capacity);
    } else if (a == "--ingest-policy") {
      if (!parse_policy(next(), &config.ingest_policy)) usage(argv[0]);
    } else if (a == "--sub-capacity") {
      num_arg(std::size_t{1} << 20, &config.subscriber.capacity);
    } else if (a == "--sub-policy") {
      if (!parse_policy(next(), &config.subscriber.policy)) usage(argv[0]);
    } else if (a == "--drain-timeout-ms") {
      num_arg(INT_MAX, &config.drain_timeout_ms);
    } else if (a == "--health-on-exit") {
      health_on_exit = next();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(argv[0]);
    }
  }
  if (config.socket_path.empty()) {
    std::fprintf(stderr, "--socket is required\n");
    usage(argv[0]);
  }

  daemon::Daemon daemon(config);
  if (!daemon.start()) {
    std::fprintf(stderr, "vihotd: %s\n", daemon.error().c_str());
    return 1;
  }
  g_daemon = &daemon;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::fprintf(stderr, "vihotd: serving on %s (%zu worker thread%s)\n",
               config.socket_path.c_str(), config.threads,
               config.threads == 1 ? "" : "s");
  daemon.serve();
  if (!health_on_exit.empty()) {
    std::ofstream os(health_on_exit);
    if (os) os << daemon.health_json();
  }
  std::fprintf(stderr, "vihotd: drained, exiting\n");
  g_daemon = nullptr;
  return 0;
}
