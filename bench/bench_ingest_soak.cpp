// Ingest soak: multi-producer offer_* firehose against a live fleet.
//
//   bench_ingest_soak [--sessions N] [--producers N] [--seconds S]
//                     [--capacity N] [--policy block|drop-oldest|drop-newest]
//                     [--threads K] [--metrics-out PATH]
//
// N producer threads (default 4) each own a disjoint slice of the fleet
// and offer CSI + IMU samples flat-out through the engine's async ingest
// rings, while the main thread keeps ticking estimate_all(). The bench
// proves the three ingest-tier claims:
//
//   1. Bounded memory: ring depth never exceeds the configured capacity
//      (reported from the ingest.queue_depth_csi histogram max), no
//      matter how far the producers outrun the drain.
//   2. Allocation-free producers: a global operator-new hook counts
//      per-thread allocations; after a warm-up phase (which pays the
//      one-time ring-cell vector growth) the timed phase must see ZERO
//      allocations on every producer thread, or the bench exits 1. The
//      warm-up ends only once every producer has had a full ring of
//      offers accepted on each stream of each of its sessions; if that
//      takes longer than kWarmupCapS the bench fails instead of timing
//      a cold ring.
//   3. Sustained throughput under overload: offers/s, accepted vs
//      dropped, and the batch-tick rate are reported side by side.
//
// --metrics-out dumps the full obs registry (including every ingest.*
// drop/overflow counter) as JSON/CSV, same format as vihot_sim.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "engine/ingest_ring.h"
#include "engine/tracker_engine.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "util/parse_number.h"

// ---------------------------------------------------------------------
// Global allocation hook: counts every operator-new on the calling
// thread. Producers snapshot their own counter around the timed phase;
// the consumer (main) thread is free to allocate.
namespace bench_alloc {
thread_local std::uint64_t thread_allocs = 0;
}  // namespace bench_alloc

void* operator new(std::size_t size) {
  ++bench_alloc::thread_allocs;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using vihot::engine::SessionId;
using vihot::engine::TrackerEngine;

// Same synthetic profile as bench_engine_throughput: representative
// matcher cost without simulator overhead.
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
  const double period = 5.0;
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

enum class Phase : int { kWarmup, kTimed, kDone };

/// Wall-clock bound on the warm-up; a fleet that cannot lap its rings in
/// this time fails the run rather than entering the timed phase cold.
constexpr double kWarmupCapS = 120.0;

struct ProducerResult {
  std::uint64_t offers = 0;           ///< offer_* calls in the timed phase
  std::uint64_t accepted = 0;         ///< offers that returned true
  std::uint64_t timed_allocs = 0;     ///< heap allocations in timed phase
  double sim_t = 0.0;                 ///< final per-producer sim clock
};

struct Shared {
  TrackerEngine* engine = nullptr;
  std::uint64_t lap = 0;  ///< ring cells per stream (one full lap)
  std::atomic<Phase> phase{Phase::kWarmup};
  std::vector<std::atomic<double>> now;  ///< per-producer sim clock
  /// Per producer: every ring of its slice has seen `lap` accepted offers.
  std::vector<std::atomic<bool>> lapped;
  explicit Shared(std::size_t producers) : now(producers), lapped(producers) {
    for (auto& n : now) n.store(0.0);
    for (auto& l : lapped) l.store(false);
  }
};

/// One producer: owns `ids`, streams CSI at a simulated 250 Hz per
/// session (plus IMU at a quarter of that) as fast as the thread can go.
/// The measurement object lives outside the loop and is mutated in
/// place, so the offer path itself is the only allocation suspect.
void produce(Shared& shared, std::size_t slot,
             const std::vector<SessionId>& ids, ProducerResult& out) {
  vihot::wifi::CsiMeasurement m;
  m.h[0].assign(4, {1.0, 0.0});
  m.h[1].assign(4, {1.0, 0.0});
  vihot::imu::ImuSample imu;

  const double dt = 1.0 / 250.0;
  double t = 0.0;
  std::uint64_t iter = 0;
  std::uint64_t offers = 0;
  std::uint64_t accepted = 0;
  std::uint64_t alloc_base = 0;
  bool timed = false;
  TrackerEngine& eng = *shared.engine;
  // Warm-up bookkeeping: accepted offers per session and stream, and how
  // many sessions have reached a full lap on each stream.
  std::vector<std::uint64_t> csi_hits(ids.size(), 0);
  std::vector<std::uint64_t> imu_hits(ids.size(), 0);
  std::size_t csi_lapped = 0;
  std::size_t imu_lapped = 0;
  const auto count_hit = [&](std::vector<std::uint64_t>& hits, std::size_t k,
                             std::size_t& lapped) {
    if (!timed && ++hits[k] == shared.lap) ++lapped;
  };

  for (;;) {
    const Phase phase = shared.phase.load(std::memory_order_acquire);
    if (phase == Phase::kDone) break;
    if (phase == Phase::kTimed && !timed) {
      // Warm-up over: every ring cell has been lapped; from here on any
      // allocation on this thread is an ingest-path regression.
      timed = true;
      alloc_base = bench_alloc::thread_allocs;
      offers = 0;
      accepted = 0;
    }
    t += dt;
    const double theta =
        1.4 * std::sin(0.37 * t + 0.2 * static_cast<double>(slot));
    const double phi = phase_of(theta);
    for (std::size_t a = 0; a < 4; ++a) {
      m.h[0][a] = std::polar(1.0, phi);
    }
    for (std::size_t k = 0; k < ids.size(); ++k) {
      m.t = t;
      ++offers;
      if (eng.offer_csi(ids[k], m)) {
        ++accepted;
        count_hit(csi_hits, k, csi_lapped);
      }
      if ((iter & 3u) == 0) {
        imu.t = t;
        imu.gyro_yaw_rad_s = 0.1 * std::cos(0.37 * t);
        imu.accel_lateral_mps2 = 0.0;
        ++offers;
        if (eng.offer_imu(ids[k], imu)) {
          ++accepted;
          count_hit(imu_hits, k, imu_lapped);
        }
      }
    }
    if (!timed && csi_lapped == ids.size() && imu_lapped == ids.size()) {
      shared.lapped[slot].store(true, std::memory_order_release);
    }
    ++iter;
    if ((iter & 255u) == 0) {
      shared.now[slot].store(t, std::memory_order_relaxed);
    }
  }
  out.offers = offers;
  out.accepted = accepted;
  out.timed_allocs = timed ? bench_alloc::thread_allocs - alloc_base : 0;
  out.sim_t = t;
}

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

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sessions N] [--producers N] [--seconds S]\n"
               "  [--capacity N] [--policy block|drop-oldest|drop-newest]\n"
               "  [--threads K] [--metrics-out PATH]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vihot;
  std::size_t sessions = 8;
  std::size_t producers = 4;
  double seconds = 3.0;
  std::size_t capacity = 256;
  std::size_t threads = 2;
  engine::OverloadPolicy policy = engine::OverloadPolicy::kDropOldest;
  const char* policy_name = "drop-oldest";
  std::string metrics_out;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(*argv);
      return argv[++i];
    };
    if (a == "--sessions") {
      sessions =
          util::flag_number<std::size_t>(argc, argv, i, 1, 1000000, usage);
    } else if (a == "--producers") {
      producers = util::flag_number<std::size_t>(argc, argv, i, 1, 64, usage);
    } else if (a == "--seconds") {
      seconds = util::flag_number(argc, argv, i, 0.1, 1e5, usage);
    } else if (a == "--capacity") {
      capacity = util::flag_number<std::size_t>(
          argc, argv, i, 1, engine::kMaxIngestCapacity, usage);
    } else if (a == "--threads") {
      threads = util::flag_number<std::size_t>(
          argc, argv, i, 0, engine::kMaxWorkerThreads, usage);
    } else if (a == "--policy") {
      const std::string p = next();
      policy_name = argv[i];
      if (p == "block") {
        policy = engine::OverloadPolicy::kBlock;
      } else if (p == "drop-oldest") {
        policy = engine::OverloadPolicy::kDropOldest;
      } else if (p == "drop-newest") {
        policy = engine::OverloadPolicy::kDropNewest;
      } else {
        std::fprintf(stderr, "unknown policy %s\n", p.c_str());
        return 2;
      }
    } else if (a == "--metrics-out") {
      metrics_out = next();
    } else {
      usage(*argv);
    }
  }
  if (sessions < producers) sessions = producers;

  obs::Sink sink;
  engine::IngestConfig ingest;
  ingest.csi_capacity = capacity;
  ingest.imu_capacity = capacity;
  ingest.policy = policy;
  TrackerEngine engine({threads, &sink, ingest});
  const auto profile = engine.add_profile(make_profile());

  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < sessions; ++s) {
    ids.push_back(engine.create_session(profile));
  }
  // Disjoint per-producer session slices (the rings are SPSC: exactly
  // one producer thread per session's streams).
  std::vector<std::vector<SessionId>> slices(producers);
  for (std::size_t s = 0; s < ids.size(); ++s) {
    slices[s % producers].push_back(ids[s]);
  }

  std::printf("ingest soak: %zu sessions, %zu producers, %zu-deep rings, "
              "%s policy, %zu workers, %.1f s\n",
              sessions, producers, engine.ingest_config().csi_capacity,
              policy_name, threads, seconds);

  Shared shared(producers);
  shared.engine = &engine;
  // The rings round their capacity up to a power of two.
  shared.lap = std::bit_ceil(capacity);
  std::vector<ProducerResult> results(producers);
  std::vector<std::thread> pool;
  pool.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    pool.emplace_back([&, p] { produce(shared, p, slices[p], results[p]); });
  }

  // Ticks estimate_all() until done(elapsed wall seconds) holds.
  const auto tick = [&](auto done) {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t ticks = 0;
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (done(std::chrono::duration<double>(now - start).count())) break;
      // Estimate at the slowest producer's sim clock, so no session is
      // asked about a future its feed has not reached yet.
      double t_est = shared.now[0].load(std::memory_order_relaxed);
      for (std::size_t p = 1; p < producers; ++p) {
        t_est = std::min(t_est,
                         shared.now[p].load(std::memory_order_relaxed));
      }
      (void)engine.estimate_all(t_est);
      ++ticks;
    }
    return ticks;
  };

  // Warm-up: until every ring cell has been written at least once (one
  // full lap warms the cell vectors' capacity), and at least long enough
  // for the phase buffers to reach steady-state trimming.
  const auto all_lapped = [&] {
    return std::all_of(shared.lapped.begin(), shared.lapped.end(),
                       [](const std::atomic<bool>& l) {
                         return l.load(std::memory_order_acquire);
                       });
  };
  const double min_warmup_s = std::max(0.5, seconds * 0.2);
  const auto warm_start = std::chrono::steady_clock::now();
  (void)tick([&](double s) {
    return s >= kWarmupCapS || (s >= min_warmup_s && all_lapped());
  });
  if (!all_lapped()) {
    shared.phase.store(Phase::kDone, std::memory_order_release);
    for (std::thread& th : pool) th.join();
    std::fprintf(stderr,
                 "error: warm-up did not lap every ingest ring within "
                 "%.0f s; the timed phase would start cold\n",
                 kWarmupCapS);
    return 1;
  }
  std::printf("  warm-up:    every ring lapped after %.1f s\n",
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            warm_start)
                  .count());
  shared.phase.store(Phase::kTimed, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t ticks = tick([&](double s) { return s >= seconds; });
  const auto t1 = std::chrono::steady_clock::now();
  shared.phase.store(Phase::kDone, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  const double wall = std::chrono::duration<double>(t1 - t0).count();

  std::uint64_t offers = 0;
  std::uint64_t accepted = 0;
  std::uint64_t producer_allocs = 0;
  for (const ProducerResult& r : results) {
    offers += r.offers;
    accepted += r.accepted;
    producer_allocs += r.timed_allocs;
  }
  const obs::IngestStats& is = sink.ingest;
  const std::uint64_t dropped =
      is.csi_dropped_newest.value() + is.csi_dropped_oldest.value() +
      is.imu_dropped_newest.value() + is.imu_dropped_oldest.value();
  const double peak_depth = is.queue_depth_csi.max();

  std::printf("  producers:  %.2fM offers in %.2f s -> %.2fM offers/s "
              "(%.1f%% accepted)\n",
              static_cast<double>(offers) * 1e-6, wall,
              wall > 0.0 ? static_cast<double>(offers) * 1e-6 / wall : 0.0,
              offers > 0
                  ? 100.0 * static_cast<double>(accepted) /
                        static_cast<double>(offers)
                  : 0.0);
  std::printf("  consumer:   %llu batch ticks (%.0f/s), %llu samples "
              "drained\n",
              static_cast<unsigned long long>(ticks),
              wall > 0.0 ? static_cast<double>(ticks) / wall : 0.0,
              static_cast<unsigned long long>(is.drained_csi.value() +
                                              is.drained_imu.value()));
  std::printf("  overload:   %llu dropped (policy %s), %llu block "
              "timeouts, %llu high-watermark hits\n",
              static_cast<unsigned long long>(dropped), policy_name,
              static_cast<unsigned long long>(is.block_timeouts.value()),
              static_cast<unsigned long long>(is.high_watermark.value()));
  std::printf("  memory:     peak CSI queue depth %.0f of %zu capacity "
              "(bounded: %s)\n",
              peak_depth, capacity,
              peak_depth <= static_cast<double>(capacity) ? "yes" : "NO");
  std::printf("  allocs:     %llu producer-thread heap allocations in the "
              "timed phase (%s)\n",
              static_cast<unsigned long long>(producer_allocs),
              producer_allocs == 0 ? "allocation-free" : "REGRESSION");

  if (!metrics_out.empty()) {
    if (!write_metrics(sink, metrics_out)) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::printf("  metrics:    written to %s\n", metrics_out.c_str());
  }

  if (producer_allocs != 0) return 1;
  if (peak_depth > static_cast<double>(capacity)) return 1;
  return 0;
}
