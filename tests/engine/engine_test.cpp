// TrackerEngine + WorkerPool tests.
//
// The engine must behave exactly like N standalone ViHotTrackers — the
// batched fan-out is a scheduling optimization, never an algorithmic
// change — and it must stay correct under concurrent producers. The
// threaded tests here are the TSan targets of tools/run_checks.sh.
#include "engine/tracker_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include "engine/worker_pool.h"
#include "obs/sink.h"
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

TEST(WorkerPoolTest, ZeroThreadsRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t ran = 0;
  auto job = [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  };
  pool.run(7, job);
  EXPECT_EQ(ran, 7u);
}

TEST(WorkerPoolTest, EmptyBatchReturnsImmediately) {
  WorkerPool pool(2);
  auto job = [](std::size_t) { FAIL() << "job ran for an empty batch"; };
  pool.run(0, job);
}

TEST(WorkerPoolTest, ItemsDrainedSumToBatchSizes) {
  WorkerPool pool(3);
  auto job = [](std::size_t) {};
  pool.run(100, job);
  pool.run(50, job);
  const std::vector<std::uint64_t> drained = pool.items_drained();
  ASSERT_EQ(drained.size(), 3u);
  std::uint64_t total = 0;
  for (const std::uint64_t n : drained) total += n;
  EXPECT_EQ(total, 150u);
}

TEST(WorkerPoolTest, InlinePoolCountsOnSlotZero) {
  WorkerPool pool(0);
  auto job = [](std::size_t) {};
  pool.run(9, job);
  const std::vector<std::uint64_t> drained = pool.items_drained();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], 9u);
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
  // A failed LOOKUP is the absence of a result, not a valid == false
  // estimate (which also describes a live session that hasn't locked).
  EXPECT_FALSE(engine.estimate_one(42, 1.0).has_value());
  EXPECT_FALSE(engine.forecast_one(42, 0.1).has_value());
}

TEST(TrackerEngineTest, UnknownSessionLookupsAreCounted) {
  obs::Sink sink;
  TrackerEngine engine({0, &sink});
  const auto profile = engine.add_profile(synthetic_profile(3));
  const SessionId id = engine.create_session(profile);
  // Live session: results exist (valid or not), nothing counted.
  ASSERT_TRUE(engine.estimate_one(id, 0.0).has_value());
  ASSERT_TRUE(engine.forecast_one(id, 0.1).has_value());
  EXPECT_EQ(sink.engine.unknown_session.value(), 0u);
  // Stale handle after destroy: nullopt, and every miss is counted.
  ASSERT_TRUE(engine.destroy_session(id));
  EXPECT_FALSE(engine.estimate_one(id, 1.0).has_value());
  EXPECT_FALSE(engine.forecast_one(id, 0.1).has_value());
  EXPECT_FALSE(engine.swap_profile(id, profile));
  EXPECT_EQ(sink.engine.unknown_session.value(), 3u);
  // Every other entry point counts its misses too, feeds and teardown
  // included, for stale and never-issued ids alike.
  for (const SessionId unknown : {id, SessionId{42}}) {
    EXPECT_FALSE(engine.push_csi(unknown, measurement(0.0, 0.0)));
    EXPECT_FALSE(engine.push_imu(unknown, {}));
    EXPECT_FALSE(engine.push_camera(unknown, {}));
    EXPECT_FALSE(engine.offer_csi(unknown, measurement(0.0, 0.0)));
    EXPECT_FALSE(engine.offer_imu(unknown, {}));
    EXPECT_FALSE(engine.destroy_session(unknown));
  }
  EXPECT_EQ(sink.engine.unknown_session.value(), 3u + 2u * 6u);
  // Rejected samples on a LIVE session are not lookup misses.
  const SessionId live = engine.create_session(profile);
  EXPECT_TRUE(engine.push_csi(live, measurement(1.0, 0.0)));
  EXPECT_FALSE(engine.push_csi(live, measurement(0.5, 0.0)));
  EXPECT_EQ(sink.engine.unknown_session.value(), 3u + 2u * 6u);
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
  for (const std::size_t threads : {1u, 3u, 5u}) {
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
  // A fleet of one gets no inter-session parallelism, so estimate_all
  // lends the pool to the lone session's segment search (the matcher's
  // candidate-length loop fans out). The estimates must stay bit-equal
  // to the inline engine — parallel matching may only change speed.
  const auto theta = [](double t) { return -0.7 + 1.1 * (t - 1.0); };
  auto run_lone = [&](std::size_t threads, bool lend) {
    TrackerEngine::Config cfg;
    cfg.num_threads = threads;
    cfg.parallel_single_session = lend;
    TrackerEngine engine(cfg);
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

  const auto inline_results = run_lone(0, true);
  const auto lent_results = run_lone(4, true);
  const auto unlent_results = run_lone(4, false);
  ASSERT_EQ(inline_results.size(), lent_results.size());
  ASSERT_EQ(inline_results.size(), unlent_results.size());
  for (std::size_t i = 0; i < inline_results.size(); ++i) {
    EXPECT_EQ(inline_results[i].valid, lent_results[i].valid);
    EXPECT_DOUBLE_EQ(inline_results[i].theta_rad,
                     lent_results[i].theta_rad);
    EXPECT_DOUBLE_EQ(inline_results[i].raw.match_distance,
                     lent_results[i].raw.match_distance);
    EXPECT_EQ(inline_results[i].raw.match_start,
              lent_results[i].raw.match_start);
    EXPECT_EQ(inline_results[i].raw.match_length,
              lent_results[i].raw.match_length);
    EXPECT_DOUBLE_EQ(inline_results[i].theta_rad,
                     unlent_results[i].theta_rad);
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
    const core::TrackResult rp = *plain.estimate_one(pa, t);
    const core::TrackResult ro = *observed.estimate_one(ob, t);
    EXPECT_EQ(rp.valid, ro.valid);
    if (rp.valid) EXPECT_DOUBLE_EQ(rp.theta_rad, ro.theta_rad);
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
