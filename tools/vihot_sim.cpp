// vihot_sim: run any evaluation scenario from the command line.
//
//   vihot_sim [options]
//     --scenario NAME      run a named scenario pack (see
//                          --list-scenarios). The pack defines the whole
//                          cabin — occupant roster, motion, interference,
//                          faults — so it composes ONLY with --seed,
//                          --duration, --threads, --record, --csv and
//                          --metrics-out; any ad-hoc scenario
//                          flag alongside --scenario is an error
//     --list-scenarios     print the scenario-pack registry and exit
//     --seed N             RNG seed (default 2024)
//     --sessions N         run-time sessions (default 5)
//     --duration S         seconds per session (default 30)
//     --layout 1..5        RX antenna layout (default 1)
//     --driver A|B|C       driver profile (default A)
//     --window-ms N        CSI matching window (default 100)
//     --horizon-ms N       prediction horizon (default 0)
//     --turn-speed D       head turn speed, deg/s (default: driver habit)
//     --passenger          front passenger present
//     --steering           large steering events on the route
//     --vibration          bumpy road / antenna vibration
//     --interference       contended WiFi channel
//     --music              music playing (panel vibration)
//     --seat-shift MM      head-position shift vs profiling (default 0)
//     --sanitizer-backend eq3|kalman
//                          sanitize-stage backend (default eq3)
//     --tracker-backend dtw|ekf
//                          track-stage backend (default dtw)
//     --naive              also evaluate the Eq.-(5) baseline
//     --camera             also evaluate the camera baseline
//     --threads K          fleet mode: serve all sessions concurrently
//                          through one TrackerEngine with K threads,
//                          the ticking thread included (0 and 1 =
//                          inline batches)
//     --faults             inject transport faults (loss, bursts,
//                          reordering, clock jitter, NaN/Inf samples)
//                          into the CSI and IMU feeds; implies fleet
//                          mode (use --threads to add threads)
//     --fault-drop P       override the i.i.d. loss probability
//     --fault-nan P        override the corruption probability
//     --async-ingest       feed the fleet through the engine's bounded
//                          ingest rings (offer_* + batch drain) instead
//                          of the synchronous push path; implies fleet
//     --ingest-policy X    ring overload policy: block | drop-oldest |
//                          drop-newest (default drop-oldest)
//     --record PATH        flight-record the run into a .vrlog at PATH
//                          (implies fleet mode; verify later with
//                          `vihot_replay verify PATH`)
//     --csv                machine-readable one-line summary
//     --metrics-out PATH   write the run's tracker/engine metric
//                          families (obs::Registry snapshot) to PATH;
//                          a .csv suffix selects CSV, anything else JSON
//
// Numeric values parse strictly (the whole token, range-checked); a bad
// one prints usage and exits 2, like an unknown flag.
//
// Example: reproduce the Fig. 17b "w/o identifier" condition:
//   vihot_sim --steering --no-identifier

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <memory>

#include "engine/ingest_ring.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "replay/recorder.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "util/angle.h"
#include "util/parse_number.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario NAME] [--list-scenarios]\n"
               "  [--seed N] [--sessions N] [--duration S] "
               "[--layout 1..5]\n"
               "  [--driver A|B|C] [--window-ms N] [--horizon-ms N] "
               "[--turn-speed DEG_S]\n"
               "  [--passenger] [--steering] [--no-identifier] "
               "[--vibration] [--interference]\n"
               "  [--music] [--seat-shift MM] [--naive] [--camera] "
               "[--threads K] [--csv]\n"
               "  [--faults] [--fault-drop P] [--fault-nan P] "
               "[--async-ingest]\n"
               "  [--ingest-policy block|drop-oldest|drop-newest] "
               "[--record PATH]\n"
               "  [--sanitizer-backend eq3|kalman] "
               "[--tracker-backend dtw|ekf]\n"
               "  [--metrics-out PATH]\n",
               argv0);
  std::exit(2);
}

/// The next token as a number in [lo, hi]; usage + exit 2 otherwise.
template <typename T = double>
T num_arg(int argc, char** argv, int& i, T lo, T hi) {
  return vihot::util::flag_number(argc, argv, i, lo, hi, usage);
}

/// Snapshots the sink into PATH (CSV for a .csv suffix, JSON otherwise).
bool write_metrics(const vihot::obs::Sink& sink, const std::string& path) {
  vihot::obs::Registry registry;
  sink.attach_to(registry);
  std::ofstream os(path);
  if (!os) return false;
  const bool as_csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (as_csv) {
    registry.write_csv(os);
  } else {
    registry.write_json(os);
  }
  return static_cast<bool>(os);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vihot;
  sim::ScenarioConfig config;
  config.seed = 2024;
  config.runtime_sessions = 5;
  config.runtime_duration_s = 30.0;
  bool csv = false;
  bool fleet = false;
  std::size_t threads = 0;
  std::string metrics_out;
  std::string record_out;
  std::string scenario_name;
  bool list_scenarios = false;
  bool seed_set = false;
  bool duration_set = false;
  // First flag that configures the ad-hoc scenario path; any such flag
  // contradicts --scenario (the pack already defines the cabin).
  std::string adhoc_flag;
  obs::Sink sink;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (adhoc_flag.empty() && a != "--scenario" && a != "--list-scenarios" &&
        a != "--seed" && a != "--duration" && a != "--threads" &&
        a != "--record" && a != "--csv" && a != "--metrics-out") {
      adhoc_flag = a;
    }
    if (a == "--scenario") {
      if (i + 1 >= argc) usage(*argv);
      scenario_name = argv[++i];
    } else if (a == "--list-scenarios") {
      list_scenarios = true;
    } else if (a == "--seed") {
      config.seed = num_arg<std::uint64_t>(argc, argv, i, 0, UINT64_MAX);
      seed_set = true;
    } else if (a == "--sessions") {
      config.runtime_sessions =
          num_arg<std::size_t>(argc, argv, i, 1, 100000);
    } else if (a == "--duration") {
      config.runtime_duration_s = num_arg(argc, argv, i, 0.1, 1e6);
      duration_set = true;
    } else if (a == "--layout") {
      config.layout = static_cast<channel::AntennaLayout>(
          num_arg<int>(argc, argv, i, 1, 5));
    } else if (a == "--driver") {
      if (i + 1 >= argc) usage(*argv);
      const std::string d = argv[++i];
      if (d == "A") config.driver = motion::driver_a();
      else if (d == "B") config.driver = motion::driver_b();
      else if (d == "C") config.driver = motion::driver_c();
      else usage(*argv);
    } else if (a == "--window-ms") {
      config.tracker.matcher.window_s =
          num_arg(argc, argv, i, 1.0, 1e4) / 1000.0;
    } else if (a == "--horizon-ms") {
      config.prediction_horizon_s =
          num_arg(argc, argv, i, 0.0, 1e4) / 1000.0;
    } else if (a == "--turn-speed") {
      config.head_turn_speed_rad_s =
          util::deg_to_rad(num_arg(argc, argv, i, 0.0, 1e4));
    } else if (a == "--passenger") {
      config.passenger_present = true;
    } else if (a == "--steering") {
      config.steering_events = true;
    } else if (a == "--no-identifier") {
      config.tracker.steering.enabled = false;
    } else if (a == "--vibration") {
      config.antenna_vibration = true;
    } else if (a == "--interference") {
      config.scheduler.load = wifi::ChannelLoad::kInterfering;
    } else if (a == "--music") {
      config.music_playing = true;
    } else if (a == "--seat-shift") {
      config.seat_shift_m = num_arg(argc, argv, i, -1e3, 1e3) / 1000.0;
    } else if (a == "--sanitizer-backend") {
      if (i + 1 >= argc) usage(*argv);
      if (!core::parse_sanitizer_backend(argv[++i],
                                         &config.tracker.sanitizer_backend)) {
        std::fprintf(stderr, "unknown sanitizer backend: %s\n", argv[i]);
        usage(*argv);
      }
    } else if (a == "--tracker-backend") {
      if (i + 1 >= argc) usage(*argv);
      if (!core::parse_tracker_backend(argv[++i],
                                       &config.tracker.tracker_backend)) {
        std::fprintf(stderr, "unknown tracker backend: %s\n", argv[i]);
        usage(*argv);
      }
    } else if (a == "--naive") {
      config.collect_naive_baseline = true;
    } else if (a == "--camera") {
      config.collect_camera_baseline = true;
    } else if (a == "--threads") {
      fleet = true;
      threads =
          num_arg<std::size_t>(argc, argv, i, 0, engine::kMaxWorkerThreads);
    } else if (a == "--faults") {
      config.faults.enabled = true;
    } else if (a == "--fault-drop") {
      config.faults.drop_prob = num_arg(argc, argv, i, 0.0, 1.0);
    } else if (a == "--fault-nan") {
      config.faults.nan_prob = num_arg(argc, argv, i, 0.0, 1.0);
    } else if (a == "--async-ingest") {
      config.async_ingest = true;
    } else if (a == "--ingest-policy") {
      if (i + 1 >= argc) usage(*argv);
      const std::string p = argv[++i];
      if (p == "block") {
        config.ingest.policy = engine::OverloadPolicy::kBlock;
      } else if (p == "drop-oldest") {
        config.ingest.policy = engine::OverloadPolicy::kDropOldest;
      } else if (p == "drop-newest") {
        config.ingest.policy = engine::OverloadPolicy::kDropNewest;
      } else {
        usage(*argv);
      }
    } else if (a == "--record") {
      if (i + 1 >= argc) usage(*argv);
      record_out = argv[++i];
    } else if (a == "--csv") {
      csv = true;
    } else if (a == "--metrics-out") {
      if (i + 1 >= argc) usage(*argv);
      metrics_out = argv[++i];
    } else {
      usage(*argv);
    }
  }
  if (list_scenarios) {
    std::printf("scenario packs:\n");
    for (const scenario::ScenarioSpec& p : scenario::all_packs()) {
      std::size_t tracked = 0;
      for (const scenario::OccupantSpec& o : p.occupants) {
        if (o.tracked) ++tracked;
      }
      std::printf("  %-26s %s\n  %-26s   seed %llu, %.0f s, %zu occupant%s "
                  "(%zu tracked)\n",
                  p.name.c_str(), p.summary.c_str(), "",
                  static_cast<unsigned long long>(p.seed), p.duration_s,
                  p.occupants.size(), p.occupants.size() == 1 ? "" : "s",
                  tracked);
    }
    return 0;
  }

  if (!scenario_name.empty()) {
    if (!adhoc_flag.empty()) {
      std::fprintf(stderr,
                   "error: --scenario is incompatible with %s: the pack "
                   "already defines the cabin (occupants, motion, "
                   "interference, faults); only --seed, --duration, "
                   "--threads, --record, --csv and --metrics-out "
                   "compose with it\n",
                   adhoc_flag.c_str());
      usage(*argv);
    }
    const scenario::ScenarioSpec* spec = scenario::find_pack(scenario_name);
    if (spec == nullptr) {
      std::fprintf(stderr,
                   "error: unknown scenario pack '%s' (see "
                   "--list-scenarios)\n",
                   scenario_name.c_str());
      usage(*argv);
    }
    std::unique_ptr<replay::Recorder> recorder;
    if (!record_out.empty()) {
      replay::Recorder::Config rc;
      rc.path = record_out;
      rc.sink = &sink;
      recorder = std::make_unique<replay::Recorder>(rc);
      if (!recorder->ok()) {
        std::fprintf(stderr, "error: %s\n", recorder->error().c_str());
        return 1;
      }
    }
    scenario::RunOptions opt;
    opt.threads = threads;
    opt.sink = &sink;
    opt.tap = recorder.get();
    opt.duration_override_s = duration_set ? config.runtime_duration_s : 0.0;
    opt.seed_override = seed_set ? config.seed : 0;
    // Recording runs typically shorten the pack for corpus-sized logs;
    // the envelope verdict is the scenario ctest label's job there.
    const bool check_envelope = record_out.empty();
    const scenario::ScenarioOutcome res =
        scenario::run_pack(*spec, opt, check_envelope);
    if (recorder != nullptr) {
      const replay::Recorder::Totals t = recorder->totals();
      if (!recorder->close()) {
        std::fprintf(stderr, "error: %s\n", recorder->error().c_str());
        return 1;
      }
      std::fprintf(csv ? stderr : stdout,
                   "  recorded:   %s (%llu csi, %llu imu, %llu camera, "
                   "%llu ticks%s)\n",
                   record_out.c_str(),
                   static_cast<unsigned long long>(t.csi_frames),
                   static_cast<unsigned long long>(t.imu_samples),
                   static_cast<unsigned long long>(t.camera_frames),
                   static_cast<unsigned long long>(t.ticks),
                   t.truncated ? ", TRUNCATED" : "");
    }
    if (!metrics_out.empty() && !write_metrics(sink, metrics_out)) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   metrics_out.c_str());
      return 1;
    }
    const sim::ErrorCollector merged = res.merged_errors();
    if (csv) {
      std::printf(
          "pack,median_deg,p90_deg,n,sessions_opened,sessions_closed,ticks,"
          "envelope_pass\n%s,%.2f,%.2f,%zu,%zu,%zu,%zu,%d\n",
          res.pack.c_str(), merged.median_deg(),
          merged.percentile_deg(90.0), merged.size(), res.sessions_opened,
          res.sessions_closed, res.ticks,
          res.envelope_pass ? 1 : 0);
    } else {
      std::printf("ViHOT scenario pack '%s' (%s)\n", spec->name.c_str(),
                  spec->summary.c_str());
      std::printf("  sessions:   %zu opened, %zu closed mid-run, %zu batch "
                  "ticks\n",
                  res.sessions_opened, res.sessions_closed, res.ticks);
      for (const scenario::OccupantOutcome& oo : res.occupants) {
        if (!oo.tracked) {
          std::printf("  %-10s  interference only [%.1f, %.1f] s\n",
                      oo.name.c_str(), oo.enter_s, oo.leave_s);
          continue;
        }
        std::printf("  %-10s  median %.1f deg, p90 %.1f (n=%zu)",
                    oo.name.c_str(), oo.errors.median_deg(),
                    oo.errors.percentile_deg(90.0), oo.errors.size());
        if (oo.enter_s > 0.0) std::printf(", relock %.2f s", oo.relock_s);
        std::printf("\n");
      }
      if (check_envelope) {
        std::printf("  envelope:   %s\n",
                    res.envelope_pass ? "PASS" : "FAIL");
        for (const std::string& f : res.envelope_failures) {
          std::printf("    breach:   %s\n", f.c_str());
        }
      }
      if (!metrics_out.empty()) {
        std::printf("  metrics:    written to %s\n", metrics_out.c_str());
      }
    }
    return res.envelope_pass ? 0 : 1;
  }

  if (!metrics_out.empty()) config.tracker.sink = &sink;
  // Faults, async ingest and recording are fleet-path features: all act
  // on the pre-generated streams / engine feed loop of run_fleet.
  if (config.faults.enabled || config.async_ingest || !record_out.empty()) {
    fleet = true;
  }

  if (fleet) {
    std::unique_ptr<replay::Recorder> recorder;
    if (!record_out.empty()) {
      replay::Recorder::Config rc;
      rc.path = record_out;
      rc.sink = &sink;
      recorder = std::make_unique<replay::Recorder>(rc);
      if (!recorder->ok()) {
        std::fprintf(stderr, "error: %s\n", recorder->error().c_str());
        return 1;
      }
    }
    const sim::FleetResult res = sim::run_fleet(
        config, threads, metrics_out.empty() ? nullptr : &sink,
        recorder.get());
    if (recorder != nullptr) {
      const replay::Recorder::Totals t = recorder->totals();
      if (!recorder->close()) {
        std::fprintf(stderr, "error: %s\n", recorder->error().c_str());
        return 1;
      }
      // The one record-mode line that must not pollute --csv output.
      std::fprintf(csv ? stderr : stdout,
                  "  recorded:   %s (%llu csi, %llu imu, %llu camera, "
                  "%llu ticks%s)\n",
                  record_out.c_str(),
                  static_cast<unsigned long long>(t.csi_frames),
                  static_cast<unsigned long long>(t.imu_samples),
                  static_cast<unsigned long long>(t.camera_frames),
                  static_cast<unsigned long long>(t.ticks),
                  t.truncated ? ", TRUNCATED" : "");
    }
    if (!metrics_out.empty() && !write_metrics(sink, metrics_out)) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   metrics_out.c_str());
      return 1;
    }
    if (csv) {
      std::printf(
          "median_deg,mean_deg,p90_deg,n,sessions,threads,ticks,"
          "serve_wall_s,session_estimates_per_s\n"
          "%.2f,%.2f,%.2f,%zu,%zu,%zu,%zu,%.3f,%.0f\n",
          res.errors.median_deg(), res.errors.mean_deg(),
          res.errors.percentile_deg(90.0), res.errors.size(), res.sessions,
          threads, res.ticks, res.serve_wall_s,
          res.session_estimates_per_s);
      return 0;
    }
    std::printf("ViHOT fleet summary (%zu sessions x %.0f s, %zu worker "
                "threads)\n",
                res.sessions, config.runtime_duration_s, threads);
    std::printf("  errors:     median %.1f deg, mean %.1f, p90 %.1f "
                "(n=%zu)\n",
                res.errors.median_deg(), res.errors.mean_deg(),
                res.errors.percentile_deg(90.0), res.errors.size());
    std::printf("  serving:    %zu batch ticks in %.2f s -> %.0f "
                "session-estimates/s\n",
                res.ticks, res.serve_wall_s, res.session_estimates_per_s);
    if (res.mean_fallback_fraction > 0.0) {
      std::printf("  fallback:   %.1f%% of estimates in camera mode\n",
                  res.mean_fallback_fraction * 100.0);
    }
    std::printf("  obs:        batch mean %.0f us; worst CSI gap %.0f ms; "
                "%llu out-of-order feeds dropped\n",
                res.mean_batch_latency_us, res.max_csi_feed_gap_ms,
                static_cast<unsigned long long>(res.out_of_order_feeds));
    if (config.faults.enabled) {
      std::printf("  faults:     %zu lost (%zu in bursts), %zu reordered, "
                  "%zu corrupted of %zu delivered\n",
                  res.faults.total_dropped(), res.faults.burst_dropped,
                  res.faults.reordered, res.faults.corrupted,
                  res.faults.delivered);
      std::printf("  recovery:   %llu non-finite rejects, %llu stale-window "
                  "relocks\n",
                  static_cast<unsigned long long>(res.non_finite_feeds),
                  static_cast<unsigned long long>(res.stale_relocks));
    }
    if (config.async_ingest) {
      std::printf("  ingest:     %llu enqueued, %llu dropped by overload "
                  "policy\n",
                  static_cast<unsigned long long>(res.ingest_enqueued),
                  static_cast<unsigned long long>(res.ingest_dropped));
    }
    if (!res.worker_items.empty() && threads > 0) {
      std::printf("  workers:    items drained per thread (caller first):");
      for (const std::uint64_t n : res.worker_items) {
        std::printf(" %llu", static_cast<unsigned long long>(n));
      }
      std::printf("\n");
    }
    if (!metrics_out.empty()) {
      std::printf("  metrics:    written to %s\n", metrics_out.c_str());
    }
    return 0;
  }

  sim::ExperimentRunner runner(config);
  const sim::ExperimentResult res = runner.run();
  if (!metrics_out.empty() && !write_metrics(sink, metrics_out)) {
    std::fprintf(stderr, "error: cannot write metrics to %s\n",
                 metrics_out.c_str());
    return 1;
  }

  if (csv) {
    std::printf(
        "median_deg,mean_deg,p90_deg,max_deg,n,csi_rate_hz,max_gap_ms,"
        "fallback_frac\n%.2f,%.2f,%.2f,%.2f,%zu,%.0f,%.1f,%.3f\n",
        res.errors.median_deg(), res.errors.mean_deg(),
        res.errors.percentile_deg(90.0), res.errors.max_deg(),
        res.errors.size(), res.mean_csi_rate_hz, res.max_gap_s * 1e3,
        res.mean_fallback_fraction);
    return 0;
  }

  std::printf("ViHOT scenario summary (%zu sessions x %.0f s)\n",
              config.runtime_sessions, config.runtime_duration_s);
  std::printf("  layout:     %s\n", channel::to_string(config.layout).c_str());
  std::printf("  driver:     %s\n", config.driver.name.c_str());
  std::printf("  errors:     median %.1f deg, mean %.1f, p90 %.1f, max %.1f "
              "(n=%zu)\n",
              res.errors.median_deg(), res.errors.mean_deg(),
              res.errors.percentile_deg(90.0), res.errors.max_deg(),
              res.errors.size());
  std::printf("  csi link:   %.0f Hz mean rate, %.0f ms max gap\n",
              res.mean_csi_rate_hz, res.max_gap_s * 1e3);
  if (res.mean_fallback_fraction > 0.0) {
    std::printf("  fallback:   %.1f%% of estimates in camera mode\n",
                res.mean_fallback_fraction * 100.0);
  }
  if (!res.naive_errors.empty()) {
    std::printf("  naive:      median %.1f deg (Eq. 5 baseline)\n",
                res.naive_errors.median_deg());
  }
  if (!res.camera_errors.empty()) {
    std::printf("  camera:     median %.1f deg (30 FPS baseline)\n",
                res.camera_errors.median_deg());
  }
  const obs::TrackerStatsSnapshot& st = res.stage_stats;
  std::printf("  stages:     windows flat/hinted/global %llu/%llu/%llu; "
              "relocks %llu (%llu accepted); tie-breaks %llu; "
              "fallback served/stale %llu/%llu\n",
              static_cast<unsigned long long>(st.window_flat),
              static_cast<unsigned long long>(st.window_hinted),
              static_cast<unsigned long long>(st.window_global),
              static_cast<unsigned long long>(st.relock_widen +
                                              st.relock_global),
              static_cast<unsigned long long>(st.relock_accepted),
              static_cast<unsigned long long>(st.tie_break_applied),
              static_cast<unsigned long long>(st.fallback_served),
              static_cast<unsigned long long>(st.fallback_stale));
  if (!metrics_out.empty()) {
    std::printf("  metrics:    written to %s\n", metrics_out.c_str());
  }
  return 0;
}
