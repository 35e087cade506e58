// TrackerEngine + WorkerPool tests.
//
// The engine must behave exactly like N standalone ViHotTrackers — the
// batched fan-out is a scheduling optimization, never an algorithmic
// change — and it must stay correct under concurrent producers. The
// threaded tests here are the TSan targets of tools/run_checks.sh.
#include "engine/tracker_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/worker_pool.h"
#include "imu/turn_detector.h"
#include "obs/sink.h"
#include "replay/vrlog.h"
#include "tests/core/test_helpers.h"

namespace vihot::engine {
namespace {

using core::testing::synthetic_phase;
using core::testing::synthetic_profile;

// ------------------------------------------------------------ WorkerPool

TEST(WorkerPoolTest, EveryIndexRunsExactlyOnce) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  auto job = [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  };
  pool.run(kCount, job);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, BackToBackBatchesDoNotLeakIndices) {
  // Exercises the batch hand-over: a worker of batch k still draining the
  // index counter must never claim an index of batch k+1.
  WorkerPool pool(4);
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  auto job = [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  };
  constexpr int kBatches = 200;
  for (int b = 0; b < kBatches; ++b) pool.run(kCount, job);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), kBatches) << "index " << i;
  }
}

// OS threads of this process, from /proc/self/task (0 where unavailable).
std::size_t process_thread_count() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

TEST(WorkerPoolTest, ZeroThreadsRunsInline) {
  // 0 and 1 both mean the caller alone: no thread is spawned.
  for (const std::size_t n : {0u, 1u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const std::size_t before = process_thread_count();
    WorkerPool pool(n);
    EXPECT_EQ(process_thread_count(), before);
    EXPECT_EQ(pool.size(), n);
    const std::thread::id caller = std::this_thread::get_id();
    std::size_t ran = 0;
    auto job = [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++ran;
    };
    pool.run(7, job);
    EXPECT_EQ(ran, 7u);
  }
}

TEST(WorkerPoolTest, EmptyBatchReturnsImmediately) {
  WorkerPool pool(2);
  auto job = [](std::size_t) { FAIL() << "job ran for an empty batch"; };
  pool.run(0, job);
}

TEST(WorkerPoolTest, ItemsDrainedSumToBatchSizes) {
  // Slot 0 is the caller of run(), slots 1..n-1 the threads.
  WorkerPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<std::uint64_t> on_caller{0};
  auto job = [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      on_caller.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::uint64_t total = 0;
  for (const std::size_t count : {100u, 50u, 1u, 2u, 3u, 7u}) {
    pool.run(count, job);
    total += count;
  }
  const std::vector<std::uint64_t> drained = pool.items_drained();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0], on_caller.load());
  std::uint64_t sum = 0;
  for (const std::uint64_t n : drained) sum += n;
  EXPECT_EQ(sum, total);
}

TEST(WorkerPoolTest, InlinePoolCountsOnSlotZero) {
  for (const std::size_t n : {0u, 1u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    WorkerPool pool(n);
    auto job = [](std::size_t) {};
    pool.run(9, job);
    const std::vector<std::uint64_t> drained = pool.items_drained();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0], 9u);
  }
}

TEST(WorkerPoolTest, CallerIsOneOfNParticipants) {
  // Each of the n jobs waits at an n-party rendezvous, so the batch can
  // only complete if n distinct threads hold one index each. The wait is
  // bounded: a pool of n - 1 working threads and an idle caller fails
  // here instead of deadlocking.
  for (std::size_t n = 2; n <= 4; ++n) {
    SCOPED_TRACE("n = " + std::to_string(n));
    WorkerPool pool(n);
    EXPECT_EQ(pool.size(), n);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t arrived = 0;
    bool timed_out = false;
    std::vector<std::thread::id> ids;
    auto job = [&](std::size_t) {
      std::unique_lock<std::mutex> lk(mu);
      ids.push_back(std::this_thread::get_id());
      if (++arrived == n) cv.notify_all();
      if (!cv.wait_for(lk, std::chrono::seconds(10),
                       [&] { return arrived >= n; })) {
        timed_out = true;
      }
    };
    pool.run(n, job);
    EXPECT_FALSE(timed_out);
    std::set<std::thread::id> distinct(ids.begin(), ids.end());
    EXPECT_EQ(distinct.size(), n);
    EXPECT_EQ(distinct.count(std::this_thread::get_id()), 1u);
    // One index per participant, and slot 0 is the caller's.
    EXPECT_EQ(pool.items_drained(), std::vector<std::uint64_t>(n, 1));
  }
}

TEST(WorkerPoolTest, RandomBatchSizesRunEveryIndexExactlyOnce) {
  // Stresses the batch hand-over with sizes 0..64, including batches
  // smaller than the pool, where the caller often finishes alone while
  // workers are still waking up for the batch.
  WorkerPool pool(4);
  constexpr std::size_t kMax = 64;
  std::vector<std::atomic<int>> hits(kMax);
  auto job = [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  };
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  std::uint64_t total = 0;
  for (int b = 0; b < 10000; ++b) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t count = (state >> 33) % (kMax + 1);
    for (std::atomic<int>& h : hits) h.store(0, std::memory_order_relaxed);
    pool.run(count, job);
    total += count;
    for (std::size_t i = 0; i < kMax; ++i) {
      ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
          << "batch " << b << " index " << i << " of " << count;
    }
  }
  std::uint64_t sum = 0;
  for (const std::uint64_t k : pool.items_drained()) sum += k;
  EXPECT_EQ(sum, total);
}

// ---------------------------------------------------------- TrackerEngine

// Phase-controlled measurement: h[0] carries phase `phi` against a flat
// h[1], so the sanitized antenna-difference phase is exactly `phi`.
wifi::CsiMeasurement measurement(double t, double phi,
                                 std::size_t subcarriers = 4) {
  wifi::CsiMeasurement m;
  m.t = t;
  m.h[0].assign(subcarriers, std::polar(1.0, phi));
  m.h[1].assign(subcarriers, {1.0, 0.0});
  return m;
}

// Runs `fn` on a new thread and returns its result.
template <typename Fn>
auto on_fresh_thread(Fn&& fn) {
  decltype(fn()) out;
  std::thread([&] { out = fn(); }).join();
  return out;
}

// Feeds a session the stream of a head following theta_fn, via either a
// standalone tracker or an engine session (both expose push_csi).
template <typename Sink, typename ThetaFn>
void feed(Sink&& push, ThetaFn&& theta_fn, double t0, double t1,
          double fingerprint) {
  for (double t = t0; t < t1; t += 0.004) {
    push(measurement(t, synthetic_phase(theta_fn(t), fingerprint)));
  }
}

TEST(TrackerEngineTest, SessionLifecycle) {
  TrackerEngine engine;
  const auto profile = engine.add_profile(synthetic_profile(5));

  const SessionId a = engine.create_session(profile);
  const SessionId b = engine.create_session(profile);
  const SessionId c = engine.create_session(profile);
  EXPECT_NE(a, kNoSession);
  EXPECT_EQ(engine.session_count(), 3u);
  EXPECT_EQ(engine.session_ids(), (std::vector<SessionId>{a, b, c}));

  EXPECT_TRUE(engine.destroy_session(b));
  EXPECT_FALSE(engine.destroy_session(b));  // already gone
  EXPECT_EQ(engine.session_count(), 2u);
  EXPECT_EQ(engine.session_ids(), (std::vector<SessionId>{a, c}));
  EXPECT_EQ(engine.estimate_all(1.0).size(), 2u);

  // Ids are never reused: a fresh session gets a fresh handle.
  const SessionId d = engine.create_session(profile);
  EXPECT_NE(d, b);
}

TEST(TrackerEngineTest, UnknownSessionIsRejected) {
  TrackerEngine engine;
  EXPECT_FALSE(engine.push_csi(42, measurement(0.0, 0.0)));
  EXPECT_FALSE(engine.push_imu(42, {}));
  EXPECT_FALSE(engine.push_camera(42, {}));
  EXPECT_FALSE(engine.destroy_session(42));
}

TEST(TrackerEngineTest, UnknownSessionLookupsAreCounted) {
  obs::Sink sink;
  TrackerEngine engine({0, &sink});
  const auto profile = engine.add_profile(synthetic_profile(3));
  const SessionId id = engine.create_session(profile);
  // Live session: feeds and ticks reach it, nothing counted.
  EXPECT_TRUE(engine.push_csi(id, measurement(0.0, 0.0)));
  EXPECT_EQ(engine.estimate_all(0.0).size(), 1u);
  EXPECT_EQ(sink.engine.unknown_session.value(), 0u);
  ASSERT_TRUE(engine.destroy_session(id));
  // Every entry point counts its misses, feeds and teardown included,
  // for stale and never-issued ids alike.
  for (const SessionId unknown : {id, SessionId{42}}) {
    EXPECT_FALSE(engine.push_csi(unknown, measurement(0.0, 0.0)));
    EXPECT_FALSE(engine.push_imu(unknown, {}));
    EXPECT_FALSE(engine.push_camera(unknown, {}));
    EXPECT_FALSE(engine.offer_csi(unknown, measurement(0.0, 0.0)));
    EXPECT_FALSE(engine.offer_imu(unknown, {}));
    EXPECT_FALSE(engine.destroy_session(unknown));
  }
  EXPECT_EQ(sink.engine.unknown_session.value(), 2u * 6u);
  // Rejected samples on a LIVE session are not lookup misses.
  const SessionId live = engine.create_session(profile);
  EXPECT_TRUE(engine.push_csi(live, measurement(1.0, 0.0)));
  EXPECT_FALSE(engine.push_csi(live, measurement(0.5, 0.0)));
  EXPECT_EQ(sink.engine.unknown_session.value(), 2u * 6u);
}

TEST(TrackerEngineTest, MatchesStandaloneTrackers) {
  // The engine is a pure scheduler: a fleet tick must produce bit-equal
  // results to N standalone trackers fed the same streams.
  TrackerEngine engine;
  const auto profile = engine.add_profile(synthetic_profile(5));
  const double fp2 = profile->positions[2].fingerprint_phase;

  const auto left = [](double t) { return -0.8 + 1.5 * (t - 1.0); };
  const auto right = [](double t) { return 0.7 - 1.2 * (t - 1.0); };

  const SessionId sa = engine.create_session(profile);
  const SessionId sb = engine.create_session(profile);
  core::ViHotTracker ref_a(profile, {});
  core::ViHotTracker ref_b(profile, {});

  feed([&](const auto& m) { engine.push_csi(sa, m); }, left, 0.9, 1.6, fp2);
  feed([&](const auto& m) { engine.push_csi(sb, m); }, right, 0.9, 1.6, fp2);
  feed([&](const auto& m) { ref_a.push_csi(m); }, left, 0.9, 1.6, fp2);
  feed([&](const auto& m) { ref_b.push_csi(m); }, right, 0.9, 1.6, fp2);

  for (double t = 1.2; t < 1.6; t += 0.05) {
    const std::span<const core::TrackResult> batch = engine.estimate_all(t);
    ASSERT_EQ(batch.size(), 2u);
    const core::TrackResult ra = ref_a.estimate(t);
    const core::TrackResult rb = ref_b.estimate(t);
    EXPECT_EQ(batch[0].valid, ra.valid);
    EXPECT_EQ(batch[1].valid, rb.valid);
    if (ra.valid) {
      EXPECT_DOUBLE_EQ(batch[0].theta_rad, ra.theta_rad);
    }
    if (rb.valid) {
      EXPECT_DOUBLE_EQ(batch[1].theta_rad, rb.theta_rad);
    }
  }
}

TEST(TrackerEngineTest, ThreadCountDoesNotChangeResults) {
  const auto trajectory = [](std::size_t s) {
    return [s](double t) {
      return -0.8 + (1.0 + 0.15 * static_cast<double>(s)) * (t - 1.0);
    };
  };
  constexpr std::size_t kSessions = 8;

  // Sessions are independent, so the pool size may only change speed:
  // results must be bit-identical, session by session, tick by tick.
  auto run_fleet = [&](std::size_t threads) {
    TrackerEngine engine({threads});
    const auto profile = engine.add_profile(synthetic_profile(5));
    const double fp = profile->positions[2].fingerprint_phase;
    std::vector<SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids.push_back(engine.create_session(profile));
      feed([&](const auto& m) { engine.push_csi(ids.back(), m); },
           trajectory(s), 0.9, 1.6, fp);
    }
    std::vector<core::TrackResult> all;
    for (double t = 1.2; t < 1.6; t += 0.05) {
      const auto batch = engine.estimate_all(t);
      all.insert(all.end(), batch.begin(), batch.end());
    }
    return all;
  };

  const std::vector<core::TrackResult> inline_results = run_fleet(0);
  for (const std::size_t threads : {2u, 3u, 5u}) {
    const std::vector<core::TrackResult> pooled = run_fleet(threads);
    ASSERT_EQ(inline_results.size(), pooled.size());
    for (std::size_t i = 0; i < inline_results.size(); ++i) {
      const core::TrackResult& a = inline_results[i];
      const core::TrackResult& b = pooled[i];
      EXPECT_EQ(a.valid, b.valid) << threads << " threads, i=" << i;
      EXPECT_EQ(a.mode, b.mode) << threads << " threads, i=" << i;
      EXPECT_EQ(a.position_slot, b.position_slot)
          << threads << " threads, i=" << i;
      // Bit-identical, not approximately equal.
      EXPECT_EQ(std::memcmp(&a.theta_rad, &b.theta_rad, sizeof(double)), 0)
          << threads << " threads, i=" << i;
    }
  }
}

TEST(TrackerEngineTest, LoneSessionBorrowsPoolWithIdenticalResults) {
  // A fleet of one runs its single serial scan on whichever participant
  // claims it (the caller alone at 0 threads); the pool size may only
  // change where it runs, never the bits. Every run is made on a fresh
  // thread, so each one meets cold thread_local matcher scratch on a
  // thread no other run has used.
  const auto theta = [](double t) { return -0.7 + 1.1 * (t - 1.0); };
  auto run_lone = [&](std::size_t threads) {
    TrackerEngine engine({threads});
    const auto profile = engine.add_profile(synthetic_profile(5));
    const double fp = profile->positions[2].fingerprint_phase;
    const SessionId id = engine.create_session(profile);
    feed([&](const auto& m) { engine.push_csi(id, m); }, theta, 0.9, 1.6,
         fp);
    std::vector<core::TrackResult> all;
    for (double t = 1.2; t < 1.6; t += 0.05) {
      const auto batch = engine.estimate_all(t);
      all.insert(all.end(), batch.begin(), batch.end());
    }
    return all;
  };

  const auto inline_results = on_fresh_thread([&] { return run_lone(0); });
  for (const std::size_t threads : {2u, 4u}) {
    const auto pooled = on_fresh_thread([&] { return run_lone(threads); });
    ASSERT_EQ(inline_results.size(), pooled.size());
    for (std::size_t i = 0; i < inline_results.size(); ++i) {
      const core::TrackResult& a = inline_results[i];
      const core::TrackResult& b = pooled[i];
      EXPECT_EQ(a.valid, b.valid) << threads << " threads, i=" << i;
      EXPECT_EQ(std::memcmp(&a.theta_rad, &b.theta_rad, sizeof(double)), 0)
          << threads << " threads, i=" << i;
      EXPECT_EQ(a.raw.match_start, b.raw.match_start)
          << threads << " threads, i=" << i;
      EXPECT_EQ(a.raw.match_length, b.raw.match_length)
          << threads << " threads, i=" << i;
    }
  }
}

TEST(TrackerEngineTest, MatchFunnelIsThreadCountInvariant) {
  // Every estimate is one serial scan whatever the pool size, so the
  // prune funnel (which candidates the running best cut) is a pure
  // function of the inputs, not of scheduling. Each run is made on a
  // fresh thread, so it starts on cold thread_local matcher scratch.
  struct Run {
    std::vector<unsigned char> results;  ///< every TrackResult, encoded
    std::vector<std::pair<std::string, std::uint64_t>> match_counters;
  };
  auto run = [](std::size_t sessions, std::size_t threads) {
    obs::Sink sink;
    TrackerEngine::Config cfg;
    cfg.num_threads = threads;
    cfg.sink = &sink;
    TrackerEngine engine(cfg);
    const auto profile = engine.add_profile(synthetic_profile(5));
    const double fp = profile->positions[2].fingerprint_phase;
    for (std::size_t s = 0; s < sessions; ++s) {
      const SessionId id = engine.create_session(profile);
      const double rate = 0.9 + 0.2 * static_cast<double>(s);
      feed([&](const auto& m) { engine.push_csi(id, m); },
           [rate](double t) { return -0.7 + rate * (t - 1.0); }, 0.9, 1.6,
           fp);
    }
    Run out;
    for (double t = 1.2; t < 1.6; t += 0.05) {
      for (const core::TrackResult& r : engine.estimate_all(t)) {
        replay::encode_track_result(out.results, r);
        // Fields the wire form leaves out: the alternates and the funnel.
        for (const auto& c : r.raw.candidates) {
          replay::put_f64(out.results, c.distance);
          replay::put_f64(out.results, c.theta_rad);
          replay::put_f64(out.results, c.speed_ratio);
          replay::put_u64(out.results, c.match_start);
          replay::put_u64(out.results, c.match_length);
        }
        const dsp::SeriesMatchStats& f = r.raw.scan;
        for (const std::uint64_t v :
             {f.candidates, f.lb_endpoint_pruned, f.lb_band_pruned,
              f.dtw_abandoned, f.dtw_evaluated, f.hits_filtered}) {
          replay::put_u64(out.results, v);
        }
      }
    }
    sink.tracker.for_each_metric([&](const char* name, const auto& metric) {
      const std::string suffix = name;
      if constexpr (std::is_same_v<std::decay_t<decltype(metric)>,
                                   obs::Counter>) {
        if (suffix.rfind("match_", 0) == 0) {
          out.match_counters.emplace_back(suffix, metric.value());
        }
      }
    });
    return out;
  };

  for (const std::size_t sessions : {1u, 3u}) {
    const Run base = on_fresh_thread([&] { return run(sessions, 0); });
    ASSERT_FALSE(base.match_counters.empty());
    // The funnel must have something to be invariant about.
    for (const auto& [name, value] : base.match_counters) {
      if (name == "match_attempts" || name == "match_candidates") {
        EXPECT_GT(value, 0u) << name;
      }
    }
    for (const std::size_t threads : {2u, 4u}) {
      const Run got =
          on_fresh_thread([&] { return run(sessions, threads); });
      EXPECT_EQ(base.match_counters, got.match_counters)
          << sessions << " sessions, " << threads << " threads";
      EXPECT_EQ(base.results, got.results)
          << sessions << " sessions, " << threads << " threads";
    }
  }
}

TEST(TrackerEngineTest, ConcurrentProducersAndBatchTicks) {
  // Producers push CSI into their own sessions while the consumer thread
  // ticks estimate_all: the per-session locks must keep this race-free
  // (run under TSan by tools/run_checks.sh).
  TrackerEngine engine({2});
  const auto profile = engine.add_profile(synthetic_profile(5));
  const double fp = profile->positions[2].fingerprint_phase;

  constexpr std::size_t kProducers = 4;
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < kProducers; ++s) {
    ids.push_back(engine.create_session(profile));
  }

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kProducers; ++s) {
    producers.emplace_back([&, s] {
      const auto theta = [s](double t) {
        return -0.5 + (0.8 + 0.2 * static_cast<double>(s)) * t;
      };
      feed([&](const auto& m) { engine.push_csi(ids[s], m); }, theta, 0.0,
           1.5, fp);
    });
  }

  std::size_t valid_results = 0;
  for (int tick = 0; tick < 40; ++tick) {
    const auto batch = engine.estimate_all(0.05 * tick);
    ASSERT_EQ(batch.size(), kProducers);
    for (const core::TrackResult& r : batch) valid_results += r.valid;
  }
  for (std::thread& p : producers) p.join();

  // After all producers finished, a final tick sees full streams.
  const auto final_batch = engine.estimate_all(1.45);
  for (const core::TrackResult& r : final_batch) valid_results += r.valid;
  EXPECT_GT(valid_results, 0u);
}

TEST(TrackerEngineTest, RejectsAndCountsOutOfOrderFeeds) {
  // Regression for the debug-only TimeSeries::push assert: in release
  // builds a stale sample silently corrupted the time-ordered buffers.
  // The engine must reject it (false) and count the drop.
  obs::Sink sink;
  TrackerEngine engine({0, &sink});
  const auto profile = engine.add_profile(synthetic_profile(3));
  const SessionId id = engine.create_session(profile);

  EXPECT_TRUE(engine.push_csi(id, measurement(1.0, 0.1)));
  EXPECT_TRUE(engine.push_csi(id, measurement(1.1, 0.1)));
  EXPECT_FALSE(engine.push_csi(id, measurement(0.5, 0.1)));  // stale
  EXPECT_TRUE(engine.push_csi(id, measurement(1.2, 0.1)));
  EXPECT_EQ(sink.engine.out_of_order_csi.value(), 1u);
  EXPECT_EQ(sink.engine.csi_frames.value(), 3u);

  imu::ImuSample imu_sample;
  imu_sample.t = 2.0;
  EXPECT_TRUE(engine.push_imu(id, imu_sample));
  imu_sample.t = 1.5;
  EXPECT_FALSE(engine.push_imu(id, imu_sample));
  EXPECT_EQ(sink.engine.out_of_order_imu.value(), 1u);

  camera::CameraTracker::Estimate cam;
  cam.t = 2.0;
  EXPECT_TRUE(engine.push_camera(id, cam));
  cam.t = 1.0;
  EXPECT_FALSE(engine.push_camera(id, cam));
  EXPECT_EQ(sink.engine.out_of_order_camera.value(), 1u);

  // Ordering is per-stream and per-session: a second session with an
  // earlier clock is unaffected.
  const SessionId other = engine.create_session(profile);
  EXPECT_TRUE(engine.push_csi(other, measurement(0.1, 0.1)));
}

TEST(TrackerEngineTest, EqualTimestampImuFeedStaysBounded) {
  // Equal timestamps defeat the turn detector's time-based trim. Its
  // sample cap keeps the window (memory) and every push's median (time)
  // bounded: all samples past the cap are dropped and counted, and the
  // last chunk of the burst costs about what the first did. Without the
  // cap the window grows with the burst and the last chunk costs ~7x.
  obs::Sink sink;
  TrackerEngine engine({0, &sink});
  const SessionId id =
      engine.create_session(engine.add_profile(synthetic_profile(3)));
  imu::ImuSample s;
  s.t = 1.0;
  constexpr std::size_t kChunk = 20000;
  constexpr int kChunks = 4;
  double chunk_ms[kChunks] = {};
  for (int c = 0; c < kChunks; ++c) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kChunk; ++i) {
      s.gyro_yaw_rad_s = i % 2 == 0 ? 0.3 : -0.3;
      ASSERT_TRUE(engine.push_imu(id, s));
    }
    chunk_ms[c] = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  }
  const std::size_t cap = imu::TurnDetector().window_cap();
  EXPECT_EQ(sink.tracker.imu_window_capped.value(),
            static_cast<std::uint64_t>(kChunks * kChunk - cap));
  EXPECT_LT(chunk_ms[kChunks - 1], 3.0 * chunk_ms[0] + 50.0);
}

TEST(TrackerEngineTest, PopulatesEngineMetrics) {
  obs::Sink sink;
  TrackerEngine engine({2, &sink});
  const auto profile = engine.add_profile(synthetic_profile(3));
  const double fp = profile->positions[1].fingerprint_phase;

  const SessionId a = engine.create_session(profile);
  const SessionId b = engine.create_session(profile);
  EXPECT_EQ(sink.engine.sessions_created.value(), 2u);

  feed([&](const auto& m) { engine.push_csi(a, m); },
       [](double t) { return -0.5 + 0.8 * t; }, 0.0, 1.0, fp);
  // Feed gaps are observed from the second accepted frame onward.
  EXPECT_GT(sink.engine.csi_frames.value(), 2u);
  EXPECT_EQ(sink.engine.csi_feed_gap_ms.count(),
            sink.engine.csi_frames.value() - 1);
  EXPECT_NEAR(sink.engine.csi_feed_gap_ms.max(), 4.0, 0.5);

  (void)engine.estimate_all(0.9);
  (void)engine.estimate_all(0.95);
  EXPECT_EQ(sink.engine.batches.value(), 2u);
  EXPECT_EQ(sink.engine.batch_estimates.value(), 4u);  // 2 sessions x 2
  EXPECT_EQ(sink.engine.batch_latency_us.count(), 2u);
  EXPECT_GT(sink.engine.batch_latency_us.max(), 0.0);

  // The batch work is visible in the per-worker drain counters.
  std::uint64_t drained_total = 0;
  for (const std::uint64_t n : engine.worker_items_drained()) {
    drained_total += n;
  }
  EXPECT_EQ(drained_total, 4u);

  // Sessions inherit the engine sink: stage counters populate too.
  EXPECT_EQ(sink.tracker.estimates.value(), 4u);

  EXPECT_TRUE(engine.destroy_session(b));
  EXPECT_EQ(sink.engine.sessions_destroyed.value(), 1u);
}

TEST(TrackerEngineTest, EstimateAllIsOneDispatchPerTick) {
  // Each session's pool job drains its rings and then estimates it: a
  // tick over 3 sessions holding offered samples runs exactly 3 items.
  obs::Sink sink;
  TrackerEngine engine({0, &sink});
  const auto profile = engine.add_profile(synthetic_profile(3));
  std::vector<SessionId> ids;
  for (int s = 0; s < 3; ++s) ids.push_back(engine.create_session(profile));
  for (const SessionId id : ids) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(engine.offer_csi(id, measurement(0.01 * k, 0.1)));
    }
  }
  const auto items = [&] {
    std::uint64_t total = 0;
    for (const std::uint64_t n : engine.worker_items_drained()) total += n;
    return total;
  };
  const std::uint64_t before = items();
  (void)engine.estimate_all(0.05);
  EXPECT_EQ(items(), before + 3);
  EXPECT_EQ(sink.ingest.drained_csi.value(), 12u);
  EXPECT_EQ(sink.ingest.drain_passes.value(), 3u);
  EXPECT_EQ(sink.engine.csi_frames.value(), 12u);

  // Nothing queued: the jobs only estimate and leave the rings alone.
  (void)engine.estimate_all(0.1);
  EXPECT_EQ(items(), before + 6);
  EXPECT_EQ(sink.ingest.drain_passes.value(), 3u);
}

TEST(TrackerEngineTest, NullSinkIsZeroOverheadPath) {
  // No sink: everything behaves as before, nothing crashes, results are
  // identical to the sinked engine (metrics must never perturb outputs).
  obs::Sink sink;
  TrackerEngine plain({0});
  TrackerEngine observed({0, &sink});
  const auto profile_a = plain.add_profile(synthetic_profile(3));
  const auto profile_b = observed.add_profile(synthetic_profile(3));
  const double fp = profile_a->positions[1].fingerprint_phase;
  const SessionId pa = plain.create_session(profile_a);
  const SessionId ob = observed.create_session(profile_b);
  const auto theta = [](double t) { return -0.5 + 0.9 * t; };
  feed([&](const auto& m) { plain.push_csi(pa, m); }, theta, 0.0, 1.2, fp);
  feed([&](const auto& m) { observed.push_csi(ob, m); }, theta, 0.0, 1.2,
       fp);
  for (double t = 0.8; t < 1.2; t += 0.05) {
    const core::TrackResult rp = plain.estimate_all(t)[0];
    const core::TrackResult ro = observed.estimate_all(t)[0];
    EXPECT_EQ(rp.valid, ro.valid);
    if (rp.valid) {
      EXPECT_DOUBLE_EQ(rp.theta_rad, ro.theta_rad);
    }
  }
}

TEST(TrackerEngineTest, SharedProfileOutlivesEngine) {
  std::shared_ptr<const core::CsiProfile> profile;
  {
    TrackerEngine engine;
    profile = engine.add_profile(synthetic_profile(3));
    (void)engine.create_session(profile);
  }
  // The engine (and its sessions) are gone; the caller's reference must
  // still be alive and intact.
  ASSERT_TRUE(profile);
  EXPECT_EQ(profile->size(), 3u);
}

}  // namespace
}  // namespace vihot::engine
