// perfbench: the serving benchmark's one command.
//
//   perfbench --workload ramp|drive|daemon --seed N --seconds S --trace 0|1
//             [--vihotd PATH] [--work-dir DIR] [--tiny] [--corrupt-reference]
//
// Sets the workload up three times (setup_s is the median), runs its
// measured loop for --seconds, checks every output, and prints one JSON
// object as the last line of stdout: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs
// the traced variant and reports the per-layer metrics instead.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Report;

struct Metric {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (selftest.py checks it).
constexpr Metric kEndToEnd[] = {
    {"tick_p50_ms", "ms"},     {"tick_p95_ms", "ms"},
    {"estimates_per_s", "1/s"}, {"e2e_p50_ms", "ms"},
    {"e2e_p95_ms", "ms"},      {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every workload sets each of these; a layer it does not exercise is
// set to 0 explicitly (see README.md), so a missing one is an error.
constexpr Metric kPerLayer[] = {
    // Served accuracy: seed-dependent beyond any end-to-end bound.
    {"err_p50_deg", "deg"},
    {"err_p90_deg", "deg"},
    {"engine.offer_ns", "ns"},
    {"engine.drain_ms", "ms"},
    {"engine.estimate_all_ms_p50", "ms"},
    {"engine.estimate_all_ms_p99", "ms"},
    {"engine.worker_skew", "ratio"},
    {"engine.frames_rejected", "count"},
    {"engine.frames_dropped", "count"},
    {"core.push_csi_us", "us"},
    {"core.estimate_flat_us", "us"},
    {"core.estimate_match_us", "us"},
    {"core.flat_frac", "ratio"},
    {"core.match_frac", "ratio"},
    {"core.relock_frac", "ratio"},
    {"dsp.candidates_per_match", "count"},
    {"dsp.prune_frac", "ratio"},
    {"dsp.abandon_frac", "ratio"},
    {"dsp.dtw_per_match", "count"},
    {"dsp.find_best_match_us", "us"},
    {"daemon.batch_us", "us"},
    {"daemon.encode_results_us", "us"},
    {"daemon.parse_ns_per_frame", "ns"},
    {"daemon.feed_mb_per_s", "MB/s"},
    {"daemon.sub_dropped", "count"},
    {"loadgen.late_ms_p99", "ms"},
    {"replay.load_s", "s"},
    {"sim.record_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.closure_frac", "ratio"},
    {"trace.self_ms.bench", "ms"},
    {"trace.self_ms.engine", "ms"},
    {"trace.self_ms.loadgen", "ms"},
    {"trace.self_ms.daemon", "ms"},
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ramp|drive|daemon --seed N --seconds S "
               "--trace 0|1 [--vihotd PATH] [--work-dir DIR] [--tiny] "
               "[--corrupt-reference]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = next() != "0";
    } else if (a == "--vihotd") {
      opt.vihotd = next();
    } else if (a == "--work-dir") {
      opt.work_dir = next();
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0.0)) usage(argv[0]);
  if (opt.work_dir.empty()) opt.work_dir = ".";
  if (opt.vihotd.empty()) opt.vihotd = PERFBENCH_VIHOTD;
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  return opt;
}

std::unique_ptr<perfbench::Workload> make(const Options& opt) {
  if (opt.workload == "ramp") return perfbench::make_ramp(opt);
  if (opt.workload == "drive") return perfbench::make_drive(opt);
  if (opt.workload == "daemon") return perfbench::make_daemon(opt);
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!make(opt)) usage(argv[0]);
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);

  // Set up several times, keep the last; setup_s is the median.
  Report report;
  std::vector<double> setups;
  std::unique_ptr<perfbench::Workload> workload;
  const int rounds = opt.tiny ? 1 : 3;
  for (int i = 0; i < rounds && report.ok; ++i) {
    workload.reset();  // the previous set-up (and its daemon) goes first
    workload = make(opt);
    const auto t0 = perfbench::Clock::now();
    (void)workload->setup(report);
    setups.push_back(perfbench::s_between(t0, perfbench::Clock::now()));
  }
  if (report.ok) workload->run(report);
  workload.reset();
  if (!report.ok) {
    std::fprintf(stderr, "perfbench %s: %s\n", opt.workload.c_str(),
                 report.first_failure.c_str());
    return 1;
  }
  report.set("setup_s", perfbench::percentile(setups, 50));

  std::string metrics;
  const auto emit = [&](const Metric& m, double value) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += buf;
  };
  for (const Metric& m : opt.trace ? std::span<const Metric>(kPerLayer)
                                   : std::span<const Metric>(kEndToEnd)) {
    const auto it = report.metrics.find(m.name);
    if (it == report.metrics.end()) {
      std::fprintf(stderr, "perfbench: no value for %s\n", m.name);
      return 1;
    }
    const double value = it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name);
      return 1;
    }
    emit(m, value);
  }

  const auto ticks = report.metrics.find("ticks");
  if (ticks != report.metrics.end()) {
    std::fprintf(stderr, "perfbench %s: %.0f ticks measured\n",
                 opt.workload.c_str(), ticks->second);
  }
  const bool correct = report.failed == 0;
  std::fprintf(stderr, "perfbench %s seed %llu: %llu operations, %llu failed%s%s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               correct ? "" : "; first: ", report.first_failure.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
