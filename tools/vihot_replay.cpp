// vihot_replay: verify, replay and inspect flight-recorder logs.
//
//   vihot_replay verify <log.vrlog> [--threads K] [--report PATH]
//       re-drives the log through a fresh TrackerEngine and checks the
//       outputs are bit-identical to the recorded ones; exit 0 on a
//       clean bill, 1 on divergence or a corrupt log
//   vihot_replay replay <log.vrlog> [--threads K] [--report PATH]
//       like verify, but always writes/prints the full report and only
//       fails on a corrupt log (divergences are reported, not fatal)
//   vihot_replay inspect <log.vrlog>
//       prints the log's header, session, feed and tick inventory
//   vihot_replay import <prefix> <out.vrlog> --profile <calib.vrlog>
//       tracks the text capture <prefix>.csi + <prefix>.imu against the
//       one profile in <calib.vrlog> (e.g. a `vihot_sim --record` log)
//       and writes the run as a .vrlog that verify replays bit-exactly
//
// --threads K replays with K threads (the replaying thread plus K - 1
// workers) instead of the recorded count —
// estimates are thread-count invariant, so this is itself a determinism
// check. --report PATH writes the first-divergence report to a file
// (CI uploads it as an artifact on gate failure).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "engine/ingest_ring.h"
#include "replay/import.h"
#include "replay/replayer.h"
#include "util/parse_number.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s verify <log.vrlog> [--threads K] "
               "[--report PATH] [backend overrides]\n"
               "       %s replay <log.vrlog> [--threads K] "
               "[--at-offset SECONDS] [--report PATH] [backend "
               "overrides]\n"
               "       %s inspect <log.vrlog>\n"
               "       %s import <prefix> <out.vrlog> --profile "
               "<calib.vrlog>\n"
               "--at-offset re-bases every timestamp by SECONDS (the "
               "load-generator workflow); bit-compare is skipped, the "
               "run must feed cleanly instead\n"
               "backend overrides (what-if replays; expect divergences "
               "unless the log was recorded with the same backends):\n"
               "  --sanitizer-backend eq3|kalman\n"
               "  --tracker-backend dtw|ekf\n",
               argv0, argv0, argv0, argv0);
  std::exit(2);
}

bool emit_report(const std::string& report_path, const std::string& text) {
  if (report_path.empty()) return true;
  std::ofstream os(report_path);
  if (!os) return false;
  os << text;
  return static_cast<bool>(os);
}

/// import <prefix> <out.vrlog> --profile <calib.vrlog>: a thin caller
/// of replay::import_capture; --profile is required, nothing else fits.
int import_main(int argc, char** argv) {
  if (argc != 6 || std::strcmp(argv[4], "--profile") != 0) usage(argv[0]);
  const vihot::replay::ImportResult r =
      vihot::replay::import_capture(argv[2], argv[3], argv[5]);
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("%s: imported %zu csi, %zu imu, %zu ticks\n", argv[3],
              r.csi_frames, r.imu_samples, r.ticks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vihot;
  if (argc < 3) usage(argv[0]);
  const std::string mode = argv[1];
  if (mode == "import") return import_main(argc, argv);
  const std::string path = argv[2];
  replay::ReplayOptions options;
  std::string report_path;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threads") {
      options.num_threads = util::flag_number<std::size_t>(
          argc, argv, i, 0, engine::kMaxWorkerThreads, usage);
    } else if (a == "--report") {
      if (i + 1 >= argc) usage(argv[0]);
      report_path = argv[++i];
    } else if (a == "--at-offset") {
      options.time_offset =
          util::flag_number(argc, argv, i, -1e9, 1e9, usage);
    } else if (a == "--sanitizer-backend") {
      if (i + 1 >= argc) usage(argv[0]);
      core::SanitizerBackend backend;
      if (!core::parse_sanitizer_backend(argv[++i], &backend)) {
        std::fprintf(stderr, "unknown sanitizer backend: %s\n", argv[i]);
        usage(argv[0]);
      }
      options.sanitizer_backend_override = backend;
    } else if (a == "--tracker-backend") {
      if (i + 1 >= argc) usage(argv[0]);
      core::TrackerBackend backend;
      if (!core::parse_tracker_backend(argv[++i], &backend)) {
        std::fprintf(stderr, "unknown tracker backend: %s\n", argv[i]);
        usage(argv[0]);
      }
      options.tracker_backend_override = backend;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(argv[0]);
    }
  }
  if (mode != "verify" && mode != "replay" && mode != "inspect") {
    std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
    usage(argv[0]);
  }

  const replay::LoadedLog log = replay::LoadedLog::load(path);
  if (mode == "inspect") {
    if (!log.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   log.error().c_str());
      return 1;
    }
    std::fputs(replay::format_summary(path, log.summary()).c_str(), stdout);
    return 0;
  }

  const replay::ReplayResult result = replay::replay(log, options);
  const std::string report = replay::format_report(path, result);
  if (!emit_report(report_path, report)) {
    std::fprintf(stderr, "error: cannot write report to %s\n",
                 report_path.c_str());
    return 1;
  }
  if (!result.ok) {
    std::fputs(report.c_str(), stderr);
    return 1;
  }
  if (mode == "replay") {
    std::fputs(report.c_str(), stdout);
    return 0;
  }
  // verify: quiet on success, loud + nonzero on divergence. A re-based
  // run has no recorded bits to match; its verify contract is that the
  // shifted run re-drove cleanly (every recorded sample accepted).
  if (result.rebased) {
    if (result.fed_cleanly()) {
      std::printf("%s: %llu ticks re-based, fed cleanly\n", path.c_str(),
                  static_cast<unsigned long long>(result.ticks_replayed));
      return 0;
    }
    std::fputs(report.c_str(), stderr);
    return 1;
  }
  if (result.bit_identical()) {
    std::printf("%s: %llu ticks, %llu results, bit-identical\n",
                path.c_str(),
                static_cast<unsigned long long>(result.ticks_replayed),
                static_cast<unsigned long long>(result.results_compared));
    return 0;
  }
  std::fputs(report.c_str(), stderr);
  return 1;
}
