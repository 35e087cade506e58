// Fleet-serving throughput of engine::TrackerEngine::estimate_all().
//
//   bench_engine_throughput [--sessions N] [--ticks N] [--record]
//                           [--fleet] [--threads N] [--json PATH]
//
// A fixed fleet of sessions is pre-fed identical-cost phase streams; the
// timed region is the batch tick alone, so the numbers isolate how the
// worker pool scales the matcher work. Reported: session-estimates/s at
// 1, 2, 4 and 8 worker threads (plus the inline no-pool baseline) and
// the speedup over 1 thread. On capable hardware 8 threads should serve
// >= 3x the single-thread rate; a core-starved machine (CI container)
// flattens the curve — judge scaling on hardware with real parallelism.
//
// --record instead runs the flight-recorder overhead A/B: the same
// feed + tick workload with and without a replay::Recorder tapping the
// engine (here the timed region includes the feed, since the recorder's
// hot path runs per frame). Acceptance bar: <= 2% overhead.
//
// --fleet instead runs the fleet latency profile: a 10k+ session roster
// served through one engine with --threads workers (default: one per
// core, at most 8), per-tick wall latency recorded for every tick and
// reported as p50/p99 against the 10 Hz serving budget (100 ms per
// tick) — the SLO line. The same numbers are written machine-readable to
// --json PATH (default BENCH_fleet.json) for CI artifact upload.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "engine/tracker_engine.h"
#include "obs/sink.h"
#include "replay/recorder.h"
#include "util/parse_number.h"
#include "util/table.h"

namespace {

using vihot::engine::SessionId;
using vihot::engine::TrackerEngine;

// The non-injective phase curve used across the core tests (Fig. 3
// shape): representative matcher cost without simulator overhead.
double phase_of(double theta) {
  return 0.8 * std::sin(1.3 * theta) + 0.35 * std::sin(2.6 * theta + 0.7);
}

vihot::core::CsiProfile make_profile() {
  vihot::core::PositionProfile pos;
  pos.position_index = 0;
  pos.fingerprint_phase = phase_of(0.0);
  pos.csi.t0 = 0.0;
  pos.csi.dt = 1.0 / 200.0;
  pos.orientation.t0 = 0.0;
  pos.orientation.dt = pos.csi.dt;
  const double period = 5.0;  // theta triangle [-2, 2] at 1.6 rad/s
  for (std::size_t k = 0; k < 2000; ++k) {
    const double t = pos.csi.time_at(k);
    const double u = std::fmod(t, period) / period;
    const double theta = (u < 0.5) ? (-2.0 + 8.0 * u) : (6.0 - 8.0 * u);
    pos.orientation.values.push_back(theta);
    pos.csi.values.push_back(phase_of(theta));
  }
  vihot::core::CsiProfile profile;
  profile.positions.push_back(std::move(pos));
  return profile;
}

vihot::wifi::CsiMeasurement measurement(double t, double phi) {
  vihot::wifi::CsiMeasurement m;
  m.t = t;
  m.h[0].assign(4, std::polar(1.0, phi));
  m.h[1].assign(4, {1.0, 0.0});
  return m;
}

struct RunStats {
  double wall_s = 0.0;
  double session_estimates_per_s = 0.0;
};

RunStats run_fleet_ticks(std::size_t num_threads, std::size_t num_sessions,
                         std::size_t num_ticks,
                         const std::shared_ptr<const vihot::core::CsiProfile>&
                             profile,
                         vihot::obs::Sink* sink = nullptr) {
  TrackerEngine engine({num_threads, sink});
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    ids.push_back(engine.create_session(profile));
    // Per-session trajectory: same cost, slightly different motion.
    const double rate = 0.6 + 0.05 * static_cast<double>(s % 8);
    for (double t = 0.0; t < 6.0; t += 0.004) {
      const double theta = -1.2 + rate * t;
      engine.push_csi(ids.back(), measurement(t, phase_of(theta)));
    }
  }

  // Warm the caches (and pay first-touch costs) outside the timed loop.
  (void)engine.estimate_all(0.9);
  (void)engine.estimate_all(0.95);

  const double dt = 4.9 / static_cast<double>(num_ticks);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < num_ticks; ++k) {
    (void)engine.estimate_all(1.0 + static_cast<double>(k) * dt);
  }
  const auto end = std::chrono::steady_clock::now();

  RunStats stats;
  stats.wall_s = std::chrono::duration<double>(end - start).count();
  if (stats.wall_s > 0.0) {
    stats.session_estimates_per_s =
        static_cast<double>(num_sessions * num_ticks) / stats.wall_s;
  }
  return stats;
}

/// The record-overhead variant: feed + ticks inside the timed region
/// (the recorder's hot path is per-frame, so a tick-only window would
/// hide most of its cost).
RunStats run_recorded(std::size_t num_sessions, std::size_t num_ticks,
                      const std::shared_ptr<const vihot::core::CsiProfile>&
                          profile,
                      vihot::engine::RecordTap* tap) {
  TrackerEngine engine({1, nullptr, true, {}, tap});
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    ids.push_back(engine.create_session(profile));
  }
  const double dt = 4.9 / static_cast<double>(num_ticks);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < num_sessions; ++s) {
    const double rate = 0.6 + 0.05 * static_cast<double>(s % 8);
    for (double t = 0.0; t < 6.0; t += 0.004) {
      const double theta = -1.2 + rate * t;
      engine.push_csi(ids[s], measurement(t, phase_of(theta)));
    }
  }
  for (std::size_t k = 0; k < num_ticks; ++k) {
    (void)engine.estimate_all(1.0 + static_cast<double>(k) * dt);
  }
  const auto end = std::chrono::steady_clock::now();

  RunStats stats;
  stats.wall_s = std::chrono::duration<double>(end - start).count();
  if (stats.wall_s > 0.0) {
    stats.session_estimates_per_s =
        static_cast<double>(num_sessions * num_ticks) / stats.wall_s;
  }
  return stats;
}

/// The fleet latency profile: 10k+ sessions on one engine, every tick's
/// wall latency kept for percentile reporting.
int run_fleet_latency(std::size_t threads, std::size_t sessions,
                      std::size_t ticks, const std::string& json_path,
                      const std::shared_ptr<const vihot::core::CsiProfile>&
                          profile) {
  TrackerEngine fleet({threads});

  // A short, cheap stream per session: at 10k+ sessions the pre-feed
  // dominates setup, and the matcher only needs one window's worth of
  // buffered phase to run its full cost per tick.
  std::vector<SessionId> ids;
  ids.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    ids.push_back(fleet.create_session(profile));
    const double rate = 0.6 + 0.05 * static_cast<double>(s % 8);
    for (double t = 0.0; t < 1.3; t += 0.01) {
      const double theta = -1.2 + rate * t;
      fleet.push_csi(ids.back(), measurement(t, phase_of(theta)));
    }
  }

  // Warm caches / first-touch outside the timed ticks.
  (void)fleet.estimate_all(1.0);

  std::vector<double> tick_ms;
  tick_ms.reserve(ticks);
  const double dt = 0.25 / static_cast<double>(ticks);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < ticks; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)fleet.estimate_all(1.05 + static_cast<double>(k) * dt);
    const auto t1 = std::chrono::steady_clock::now();
    tick_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  const auto end = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(end - start).count();

  std::vector<double> sorted = tick_ms;
  std::sort(sorted.begin(), sorted.end());
  const auto pct = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
  };
  const double p50 = pct(50.0);
  const double p99 = pct(99.0);
  const double ticks_per_s =
      wall_s > 0.0 ? static_cast<double>(ticks) / wall_s : 0.0;
  const double est_per_s = ticks_per_s * static_cast<double>(sessions);

  // The serving budget: a 10 Hz fleet tick must complete in its period.
  const double slo_ms = 100.0;
  std::printf("fleet latency profile: %zu sessions, %zu worker threads, "
              "%zu ticks\n",
              sessions, fleet.num_threads(), ticks);
  std::printf("  throughput: %.2f ticks/s -> %.0f session-estimates/s\n",
              ticks_per_s, est_per_s);
  std::printf("  tick latency: p50 %.1f ms, p99 %.1f ms, max %.1f ms\n",
              p50, p99, sorted.back());
  std::printf("  SLO: p99 <= %.0f ms (10 Hz tick budget): %s\n", slo_ms,
              p99 <= slo_ms ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    os << "{\n"
       << "  \"sessions\": " << sessions << ",\n"
       << "  \"threads\": " << fleet.num_threads() << ",\n"
       << "  \"ticks\": " << ticks << ",\n"
       << "  \"ticks_per_s\": " << ticks_per_s << ",\n"
       << "  \"session_estimates_per_s\": " << est_per_s << ",\n"
       << "  \"tick_latency_ms\": {\"p50\": " << p50 << ", \"p99\": " << p99
       << ", \"max\": " << sorted.back() << "},\n"
       << "  \"slo_p99_ms\": " << slo_ms << ",\n"
       << "  \"slo_pass\": " << (p99 <= slo_ms ? "true" : "false") << "\n"
       << "}\n";
    std::printf("  json: written to %s\n", json_path.c_str());
  }
  // The SLO line is informational: a core-starved CI container may miss
  // a budget sized for real hardware, and the artifact keeps the trend.
  return 0;
}

int run_record_ab(std::size_t sessions, std::size_t ticks,
                  const std::shared_ptr<const vihot::core::CsiProfile>&
                      profile) {
  const char* log_path = "bench_engine_throughput.vrlog";
  std::printf("flight-recorder overhead A/B: %zu sessions, %zu ticks "
              "(feed + tick timed)\n",
              sessions, ticks);
  // Interleaved best-of-N so machine drift hits both sides equally.
  double best_plain = 0.0;
  double best_rec = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    best_plain = std::max(
        best_plain,
        run_recorded(sessions, ticks, profile, nullptr)
            .session_estimates_per_s);
    vihot::replay::Recorder recorder({log_path});
    if (!recorder.ok()) {
      std::fprintf(stderr, "error: %s\n", recorder.error().c_str());
      return 1;
    }
    best_rec = std::max(
        best_rec, run_recorded(sessions, ticks, profile, &recorder)
                      .session_estimates_per_s);
    recorder.close();
  }
  std::remove(log_path);
  if (best_plain <= 0.0 || best_rec <= 0.0) return 1;
  const double overhead_pct = (best_plain / best_rec - 1.0) * 100.0;
  std::printf("  plain:     %.0f session-est/s\n", best_plain);
  std::printf("  recording: %.0f session-est/s\n", best_rec);
  std::printf("  overhead:  %+.2f%% (bar: <= 2%%)\n", overhead_pct);
  return 0;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sessions N] [--ticks N] [--record] "
               "[--fleet] [--threads N] [--json PATH]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 16;
  bool sessions_set = false;
  std::size_t ticks = 60;
  bool ticks_set = false;
  bool record_ab = false;
  bool fleet = false;
  std::size_t threads = 0;
  std::string json_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = vihot::util::flag_number<std::size_t>(argc, argv, i, 1,
                                                       1000000, usage);
      sessions_set = true;
    } else if (std::strcmp(argv[i], "--ticks") == 0) {
      ticks = vihot::util::flag_number<std::size_t>(argc, argv, i, 1,
                                                    1000000, usage);
      ticks_set = true;
    } else if (std::strcmp(argv[i], "--record") == 0) {
      record_ab = true;
    } else if (std::strcmp(argv[i], "--fleet") == 0) {
      fleet = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      fleet = true;
      threads = vihot::util::flag_number<std::size_t>(argc, argv, i, 0, 1024,
                                                      usage);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      usage(*argv);
    }
  }

  const auto profile =
      std::make_shared<const vihot::core::CsiProfile>(make_profile());

  if (fleet) {
    // Fleet-scale defaults: a 10k-session roster, one worker per core.
    if (!sessions_set) sessions = 10000;
    if (!ticks_set) ticks = 25;
    if (threads == 0) {
      threads = std::max(1u, std::thread::hardware_concurrency());
      threads = std::min<std::size_t>(threads, 8);
    }
    return run_fleet_latency(threads, sessions, ticks, json_path, profile);
  }

  if (record_ab) return run_record_ab(sessions, ticks, profile);

  std::printf("TrackerEngine batch throughput: %zu sessions, %zu ticks\n",
              sessions, ticks);
  vihot::util::Table table(
      {"threads", "wall(s)", "session-est/s", "speedup_vs_1"});

  double base_rate = 0.0;
  const std::size_t thread_counts[] = {0, 1, 2, 4, 8};
  for (const std::size_t n : thread_counts) {
    const RunStats stats = run_fleet_ticks(n, sessions, ticks, profile);
    if (n == 1) base_rate = stats.session_estimates_per_s;
    const std::string label = n == 0 ? "inline" : std::to_string(n);
    const std::string speedup =
        (n >= 1 && base_rate > 0.0)
            ? vihot::util::fmt(stats.session_estimates_per_s / base_rate, 2)
            : "-";
    table.add_row({label, vihot::util::fmt(stats.wall_s, 2),
                   vihot::util::fmt(stats.session_estimates_per_s, 0),
                   speedup});
  }
  table.print(std::cout);

  // Metrics-overhead check (the obs acceptance bar: <= 2%): the same
  // single-threaded run with and without a sink attached, interleaved
  // A/B over several repetitions so drift hits both sides equally, best
  // rate kept per side (the standard noise-floor estimator).
  double best_plain = 0.0;
  double best_obs = 0.0;
  vihot::obs::Sink sink;
  for (int rep = 0; rep < 3; ++rep) {
    best_plain = std::max(
        best_plain,
        run_fleet_ticks(1, sessions, ticks, profile).session_estimates_per_s);
    best_obs = std::max(
        best_obs, run_fleet_ticks(1, sessions, ticks, profile, &sink)
                      .session_estimates_per_s);
  }
  if (best_plain > 0.0 && best_obs > 0.0) {
    const double overhead_pct = (best_plain / best_obs - 1.0) * 100.0;
    std::printf("\nmetrics overhead (1 thread, best of 3): "
                "%.0f est/s plain vs %.0f est/s with sink -> %+.2f%%\n",
                best_plain, best_obs, overhead_pct);
  }
  return 0;
}
