// Async ingest tier tests: the bounded ring, the per-session overload
// policies, the session->lane router, the engine's offer/drain path and
// its equivalence with the synchronous push path, the non-finite feed
// guard, and session churn under concurrent producers (a TSan target).
#include "engine/ingest.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <limits>
#include <thread>
#include <vector>

#include "engine/ingest_ring.h"
#include "engine/tracker_engine.h"
#include "obs/sink.h"
#include "tests/core/test_helpers.h"

namespace vihot::engine {
namespace {

using core::testing::synthetic_phase;
using core::testing::synthetic_profile;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

wifi::CsiMeasurement measurement(double t, double phi,
                                 std::size_t subcarriers = 4) {
  wifi::CsiMeasurement m;
  m.t = t;
  m.h[0].assign(subcarriers, std::polar(1.0, phi));
  m.h[1].assign(subcarriers, {1.0, 0.0});
  return m;
}

// ------------------------------------------------------------ IngestRing

TEST(IngestRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(IngestRing<int>(5).capacity(), 8u);
  EXPECT_EQ(IngestRing<int>(8).capacity(), 8u);
  EXPECT_EQ(IngestRing<int>(1).capacity(), 1u);
  EXPECT_EQ(IngestRing<int>(0).capacity(), 0u);
}

TEST(IngestRingTest, CapacityIsClampedToTheMaximum) {
  // Above 2^63 the power-of-two round-up used to wrap to 0 and spin
  // forever; every oversized request now lands on the documented cap.
  EXPECT_EQ(IngestRing<char>(kMaxIngestCapacity + 1).capacity(),
            kMaxIngestCapacity);
  EXPECT_EQ(IngestRing<char>(std::numeric_limits<std::size_t>::max())
                .capacity(),
            kMaxIngestCapacity);
}

TEST(IngestRingTest, FifoOrderAndFullRejection) {
  IngestRing<int> ring(4);
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(ring.try_push(v));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.size(), 4u);
  for (int want = 0; want < 4; ++want) {
    int got = -1;
    EXPECT_TRUE(ring.try_pop([&](const int& v) { got = v; }));
    EXPECT_EQ(got, want);
  }
  EXPECT_FALSE(ring.try_pop([](const int&) {}));
  // Recycled cells accept a second lap.
  EXPECT_TRUE(ring.try_push(7));
  EXPECT_EQ(ring.size(), 1u);
}

TEST(IngestRingTest, PushDisplacingDropsTheOldest) {
  IngestRing<int> ring(4);
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(ring.try_push(v));
  EXPECT_EQ(ring.push_displacing(4), 1u);  // displaced value 0
  EXPECT_EQ(ring.size(), 4u);
  std::vector<int> out;
  ring.drain([&](const int& v) { out.push_back(v); },
             /*max=*/16);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
}

TEST(IngestRingTest, DrainHonorsTheSweepBound) {
  IngestRing<int> ring(8);
  for (int v = 0; v < 6; ++v) EXPECT_TRUE(ring.try_push(v));
  std::vector<int> out;
  EXPECT_EQ(ring.drain([&](const int& v) { out.push_back(v); }, 2), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
  EXPECT_EQ(ring.size(), 4u);
}

TEST(IngestRingTest, SpscThreadedTransfersEverythingInOrder) {
  IngestRing<int> ring(64);
  constexpr int kCount = 20000;
  std::thread producer([&] {
    for (int v = 0; v < kCount; ++v) {
      while (!ring.try_push(v)) std::this_thread::yield();
    }
  });
  int expect = 0;
  while (expect < kCount) {
    ring.try_pop([&](const int& v) {
      EXPECT_EQ(v, expect);
      ++expect;
    });
  }
  producer.join();
  EXPECT_EQ(ring.size(), 0u);
}

// ---------------------------------------------------------- finite guard

TEST(FiniteSampleTest, FlagsNanAndInfAcrossAllStreams) {
  EXPECT_TRUE(finite_sample(measurement(1.0, 0.3)));
  EXPECT_FALSE(finite_sample(measurement(kNan, 0.3)));
  wifi::CsiMeasurement bad = measurement(1.0, 0.3);
  bad.h[0][2] = {kInf, 0.0};
  EXPECT_FALSE(finite_sample(bad));

  imu::ImuSample imu{};
  imu.t = 1.0;
  EXPECT_TRUE(finite_sample(imu));
  imu.gyro_yaw_rad_s = kNan;
  EXPECT_FALSE(finite_sample(imu));
  imu.gyro_yaw_rad_s = 0.0;
  imu.t = kInf;
  EXPECT_FALSE(finite_sample(imu));

  camera::CameraTracker::Estimate cam{};
  cam.t = 2.0;
  EXPECT_TRUE(finite_sample(cam));
  cam.theta = kNan;
  EXPECT_FALSE(finite_sample(cam));
}

// --------------------------------------------------------- SessionIngest

IngestConfig small_config(OverloadPolicy policy, std::size_t capacity = 4) {
  IngestConfig c;
  c.csi_capacity = capacity;
  c.imu_capacity = capacity;
  c.policy = policy;
  return c;
}

TEST(SessionIngestTest, DropNewestRejectsWhenFullAndCounts) {
  obs::IngestStats stats;
  SessionIngest ingest(small_config(OverloadPolicy::kDropNewest), &stats);
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(ingest.offer_csi(measurement(0.1 * k, 0.0)));
  }
  EXPECT_FALSE(ingest.offer_csi(measurement(0.5, 0.0)));
  EXPECT_EQ(stats.csi_enqueued.value(), 4u);
  EXPECT_EQ(stats.csi_dropped_newest.value(), 1u);
  EXPECT_EQ(stats.csi_dropped_oldest.value(), 0u);
  EXPECT_GE(stats.high_watermark.value(), 1u);
}

TEST(SessionIngestTest, DropOldestKeepsTheFreshestSamples) {
  obs::IngestStats stats;
  SessionIngest ingest(small_config(OverloadPolicy::kDropOldest), &stats);
  for (int k = 0; k < 6; ++k) {
    EXPECT_TRUE(ingest.offer_csi(measurement(0.1 * k, 0.0)));
  }
  EXPECT_EQ(stats.csi_dropped_oldest.value(), 2u);
  std::vector<double> times;
  ingest.drain([&](const wifi::CsiMeasurement& m) { times.push_back(m.t); },
               [](const imu::ImuSample&) {});
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times.front(), 0.2);  // 0.0 and 0.1 were displaced
  EXPECT_DOUBLE_EQ(times.back(), 0.5);
  EXPECT_EQ(stats.drained_csi.value(), 4u);
  EXPECT_GE(stats.drain_passes.value(), 1u);
}

TEST(SessionIngestTest, BlockTimesOutInsteadOfWedging) {
  obs::IngestStats stats;
  IngestConfig config = small_config(OverloadPolicy::kBlock, 2);
  config.max_block_spins = 8;  // nobody drains: give up fast
  SessionIngest ingest(config, &stats);
  EXPECT_TRUE(ingest.offer_csi(measurement(0.0, 0.0)));
  EXPECT_TRUE(ingest.offer_csi(measurement(0.1, 0.0)));
  EXPECT_FALSE(ingest.offer_csi(measurement(0.2, 0.0)));
  EXPECT_EQ(stats.block_timeouts.value(), 1u);
  EXPECT_GE(stats.block_retries.value(), 8u);
}

TEST(SessionIngestTest, ZeroCapacityDisablesTheTier) {
  obs::IngestStats stats;
  IngestConfig config = small_config(OverloadPolicy::kDropOldest, 0);
  SessionIngest ingest(config, &stats);
  EXPECT_FALSE(ingest.enabled());
  EXPECT_FALSE(ingest.csi_enabled());
  EXPECT_FALSE(ingest.imu_enabled());
  EXPECT_EQ(ingest.drain([](const wifi::CsiMeasurement&) {},
                         [](const imu::ImuSample&) {}),
            0u);
}

TEST(SessionIngestTest, ImuOnlyCapacityKeepsImuStreamAsync) {
  // Regression: {csi: 0, imu: N}. The old single CSI-gated enabled()
  // reported the whole tier off, and drain() — gated on the same
  // predicate — never swept the IMU ring: anything offered there was
  // stranded forever. Gating is per stream now.
  obs::IngestStats stats;
  IngestConfig config = small_config(OverloadPolicy::kDropOldest, 64);
  config.csi_capacity = 0;
  SessionIngest ingest(config, &stats);
  EXPECT_FALSE(ingest.csi_enabled());
  EXPECT_TRUE(ingest.imu_enabled());
  EXPECT_TRUE(ingest.enabled());  // a drain sweep CAN find work

  imu::ImuSample s{};
  for (int k = 0; k < 5; ++k) {
    s.t = 0.1 * k;
    EXPECT_TRUE(ingest.offer_imu(s));
  }
  EXPECT_EQ(ingest.imu_depth(), 5u);
  std::size_t drained_imu = 0;
  EXPECT_EQ(ingest.drain([](const wifi::CsiMeasurement&) {},
                         [&](const imu::ImuSample&) { ++drained_imu; }),
            5u);
  EXPECT_EQ(drained_imu, 5u);
  EXPECT_EQ(ingest.imu_depth(), 0u);
}

TEST(SessionIngestTest, CsiOnlyCapacityKeepsCsiStreamAsync) {
  // The mirrored mix: {csi: N, imu: 0} runs CSI async, IMU off.
  obs::IngestStats stats;
  IngestConfig config = small_config(OverloadPolicy::kDropOldest, 64);
  config.imu_capacity = 0;
  SessionIngest ingest(config, &stats);
  EXPECT_TRUE(ingest.csi_enabled());
  EXPECT_FALSE(ingest.imu_enabled());
  EXPECT_TRUE(ingest.enabled());
  EXPECT_TRUE(ingest.offer_csi(measurement(0.0, 0.1)));
  std::size_t drained_csi = 0;
  EXPECT_EQ(ingest.drain([&](const wifi::CsiMeasurement&) { ++drained_csi; },
                         [](const imu::ImuSample&) {}),
            1u);
  EXPECT_EQ(drained_csi, 1u);
}

// ------------------------------------------------------------ FeedRouter

TEST(FeedRouterTest, EverySessionLivesInExactlyOneLane) {
  FeedRouter<int> router(4);
  ASSERT_EQ(router.num_lanes(), 4u);
  std::vector<int> sessions(100);
  for (std::uint64_t id = 0; id < sessions.size(); ++id) {
    router.assign(id, &sessions[id]);
  }
  std::size_t total = 0;
  for (std::size_t l = 0; l < router.num_lanes(); ++l) {
    total += router.lane(l).size();
    for (const int* s : router.lane(l)) {
      const auto id = static_cast<std::uint64_t>(s - sessions.data());
      EXPECT_EQ(router.lane_of(id), l);
    }
  }
  EXPECT_EQ(total, sessions.size());
  // The Fibonacci mix must actually spread sequential ids: no lane may
  // hold the whole fleet.
  for (std::size_t l = 0; l < router.num_lanes(); ++l) {
    EXPECT_LT(router.lane(l).size(), sessions.size());
  }
  router.remove(7, &sessions[7]);
  total = 0;
  for (std::size_t l = 0; l < router.num_lanes(); ++l) {
    total += router.lane(l).size();
  }
  EXPECT_EQ(total, sessions.size() - 1);
}

// ------------------------------------------- engine offer / drain / guard

TEST(EngineIngestTest, OfferedSamplesApplyOnDrain) {
  obs::Sink sink;
  TrackerEngine::Config cfg;
  cfg.sink = &sink;
  cfg.ingest.csi_capacity = 64;
  cfg.ingest.imu_capacity = 64;
  TrackerEngine engine(cfg);
  const auto profile = engine.add_profile(synthetic_profile(3));
  const SessionId id = engine.create_session(profile);

  for (int k = 0; k < 10; ++k) {
    EXPECT_TRUE(engine.offer_csi(id, measurement(0.01 * k, 0.1)));
  }
  EXPECT_EQ(sink.ingest.csi_enqueued.value(), 10u);
  EXPECT_EQ(sink.ingest.drained_csi.value(), 0u);
  EXPECT_EQ(engine.drain(), 10u);
  EXPECT_EQ(sink.ingest.drained_csi.value(), 10u);
  EXPECT_EQ(engine.drain(), 0u);  // empty scan: nothing left

  EXPECT_FALSE(engine.offer_csi(kNoSession + 999, measurement(1.0, 0.1)));
}

TEST(EngineIngestTest, EstimateAllDrainsBeforeTicking) {
  obs::Sink sink;
  TrackerEngine::Config cfg;
  cfg.sink = &sink;
  cfg.ingest.csi_capacity = 64;
  TrackerEngine engine(cfg);
  const auto profile = engine.add_profile(synthetic_profile(3));
  const SessionId id = engine.create_session(profile);
  for (int k = 0; k < 20; ++k) {
    EXPECT_TRUE(engine.offer_csi(id, measurement(0.01 * k, 0.1)));
  }
  (void)engine.estimate_all(0.2);
  EXPECT_EQ(sink.ingest.drained_csi.value(), 20u);
}

TEST(EngineIngestTest, ZeroCapacityOfferFallsBackToSyncPush) {
  obs::Sink sink;
  TrackerEngine::Config cfg;
  cfg.sink = &sink;
  cfg.ingest.csi_capacity = 0;
  cfg.ingest.imu_capacity = 0;
  TrackerEngine engine(cfg);
  const auto profile = engine.add_profile(synthetic_profile(3));
  const SessionId id = engine.create_session(profile);
  EXPECT_TRUE(engine.offer_csi(id, measurement(0.1, 0.2)));
  imu::ImuSample imu{};
  imu.t = 0.1;
  EXPECT_TRUE(engine.offer_imu(id, imu));
  // Applied synchronously: nothing was enqueued, nothing to drain.
  EXPECT_EQ(sink.ingest.csi_enqueued.value(), 0u);
  EXPECT_EQ(engine.drain(), 0u);
  // The sync ordering guard still applies through offer_*.
  EXPECT_FALSE(engine.offer_csi(id, measurement(0.05, 0.2)));
}

TEST(EngineIngestTest, MixedCapacityRunsEachStreamOnItsOwnPath) {
  // Regression for the fleet-tier version of the same bug: with
  // {csi: 0, imu: N} the engine's drain step early-outed on the CSI
  // capacity alone, so offered IMU samples sat in their rings forever
  // while offer_csi degraded to sync — the async IMU stream was silently
  // disabled. Each mixed-capacity combination must run each stream on
  // the path its own capacity selects.
  struct Combo {
    std::size_t csi_cap;
    std::size_t imu_cap;
  };
  const Combo combos[] = {{0, 64}, {64, 0}, {64, 64}, {0, 0}};
  for (const Combo& combo : combos) {
    SCOPED_TRACE(::testing::Message()
                 << "csi_capacity=" << combo.csi_cap
                 << " imu_capacity=" << combo.imu_cap);
    obs::Sink sink;
    TrackerEngine::Config cfg;
    cfg.sink = &sink;
    cfg.ingest.csi_capacity = combo.csi_cap;
    cfg.ingest.imu_capacity = combo.imu_cap;
    TrackerEngine engine(cfg);
    const auto profile = engine.add_profile(synthetic_profile(3));
    const SessionId id = engine.create_session(profile);

    const std::size_t n = 8;
    imu::ImuSample s{};
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_TRUE(engine.offer_csi(id, measurement(0.01 * k, 0.1)));
      s.t = 0.01 * k;
      EXPECT_TRUE(engine.offer_imu(id, s));
    }
    // Async streams queued; sync-fallback streams already applied.
    EXPECT_EQ(sink.ingest.csi_enqueued.value(), combo.csi_cap ? n : 0u);
    EXPECT_EQ(sink.ingest.imu_enqueued.value(), combo.imu_cap ? n : 0u);
    const std::size_t sync_csi = combo.csi_cap ? 0u : n;
    const std::size_t sync_imu = combo.imu_cap ? 0u : n;
    EXPECT_EQ(sink.engine.csi_frames.value(), sync_csi);
    EXPECT_EQ(sink.engine.imu_samples.value(), sync_imu);

    // The drain applies EVERYTHING queued — no stream may be stranded.
    const std::size_t queued = (combo.csi_cap ? n : 0) +
                               (combo.imu_cap ? n : 0);
    EXPECT_EQ(engine.drain(), queued);
    EXPECT_EQ(sink.ingest.drained_csi.value(), combo.csi_cap ? n : 0u);
    EXPECT_EQ(sink.ingest.drained_imu.value(), combo.imu_cap ? n : 0u);
    EXPECT_EQ(sink.engine.csi_frames.value(), n);
    EXPECT_EQ(sink.engine.imu_samples.value(), n);
  }
}

TEST(EngineIngestTest, EstimateAllDrainsImuOnlyIngest) {
  // The tick-path variant of the regression: estimate_all()'s implicit
  // drain must also sweep an IMU-only ingest tier.
  obs::Sink sink;
  TrackerEngine::Config cfg;
  cfg.sink = &sink;
  cfg.ingest.csi_capacity = 0;
  cfg.ingest.imu_capacity = 64;
  TrackerEngine engine(cfg);
  const auto profile = engine.add_profile(synthetic_profile(3));
  const SessionId id = engine.create_session(profile);
  imu::ImuSample s{};
  for (int k = 0; k < 12; ++k) {
    s.t = 0.01 * k;
    EXPECT_TRUE(engine.offer_imu(id, s));
  }
  EXPECT_EQ(sink.ingest.drained_imu.value(), 0u);
  (void)engine.estimate_all(0.2);
  EXPECT_EQ(sink.ingest.drained_imu.value(), 12u);
}

TEST(EngineIngestTest, AsyncPathMatchesSyncPathBitExact) {
  // The async tier is a scheduling change, never an algorithmic one:
  // identical feeds through push_* and through offer_*+drain must yield
  // identical estimates.
  TrackerEngine::Config sync_cfg;
  sync_cfg.ingest.csi_capacity = 0;
  TrackerEngine sync_eng(sync_cfg);
  TrackerEngine::Config async_cfg;
  async_cfg.ingest.csi_capacity = 4096;
  async_cfg.ingest.imu_capacity = 4096;
  TrackerEngine async_eng(async_cfg);

  const auto sp = sync_eng.add_profile(synthetic_profile(3));
  const auto ap = async_eng.add_profile(synthetic_profile(3));
  const SessionId sid = sync_eng.create_session(sp);
  const SessionId aid = async_eng.create_session(ap);

  double t_feed = 0.0;
  for (double t_est = 1.0; t_est < 4.0; t_est += 0.05) {
    for (; t_feed <= t_est; t_feed += 0.005) {
      const double theta = 0.8 * std::sin(0.9 * t_feed);
      const wifi::CsiMeasurement m =
          measurement(t_feed, synthetic_phase(theta));
      ASSERT_TRUE(sync_eng.push_csi(sid, m));
      ASSERT_TRUE(async_eng.offer_csi(aid, m));
    }
    const core::TrackResult rs = sync_eng.estimate_all(t_est)[0];
    const core::TrackResult ra = async_eng.estimate_all(t_est)[0];
    ASSERT_EQ(rs.valid, ra.valid) << "t=" << t_est;
    ASSERT_EQ(rs.theta_rad, ra.theta_rad) << "t=" << t_est;
    ASSERT_EQ(rs.position_slot, ra.position_slot);
  }
}

TEST(EngineIngestTest, NonFiniteFeedsRejectedAndCounted) {
  obs::Sink sink;
  TrackerEngine::Config cfg;
  cfg.sink = &sink;
  cfg.ingest.csi_capacity = 16;
  TrackerEngine engine(cfg);
  const auto profile = engine.add_profile(synthetic_profile(3));
  const SessionId id = engine.create_session(profile);

  EXPECT_FALSE(engine.push_csi(id, measurement(kNan, 0.1)));
  wifi::CsiMeasurement poisoned = measurement(1.0, 0.1);
  poisoned.h[1][0] = {0.0, kNan};
  EXPECT_FALSE(engine.offer_csi(id, poisoned));
  EXPECT_EQ(sink.engine.non_finite_csi.value(), 2u);

  imu::ImuSample imu{};
  imu.t = kInf;
  EXPECT_FALSE(engine.push_imu(id, imu));
  imu.t = 1.0;
  imu.accel_lateral_mps2 = kNan;
  EXPECT_FALSE(engine.offer_imu(id, imu));
  EXPECT_EQ(sink.engine.non_finite_imu.value(), 2u);

  camera::CameraTracker::Estimate cam{};
  cam.t = kNan;
  EXPECT_FALSE(engine.push_camera(id, cam));
  EXPECT_EQ(sink.engine.non_finite_camera.value(), 1u);

  // A rejected sample leaves no trace downstream: nothing was queued.
  EXPECT_EQ(sink.ingest.csi_enqueued.value(), 0u);
  EXPECT_EQ(sink.ingest.imu_enqueued.value(), 0u);

  // Clean samples still flow.
  EXPECT_TRUE(engine.push_csi(id, measurement(2.0, 0.1)));
}

// ---------------------------------------------------------- churn + TSan

TEST(EngineIngestTest, SessionChurnUnderConcurrentProducersAndTicks) {
  // Sessions are created and destroyed while producer threads keep
  // offering into surviving sessions and the batch tick keeps draining.
  // Run under the tsan preset this is the ingest tier's data-race proof.
  obs::Sink sink;
  TrackerEngine::Config cfg;
  cfg.num_threads = 2;
  cfg.sink = &sink;
  cfg.ingest.csi_capacity = 64;
  cfg.ingest.imu_capacity = 64;
  TrackerEngine engine(cfg);
  const auto profile = engine.add_profile(synthetic_profile(3));
  std::vector<SessionId> stable;
  for (int s = 0; s < 4; ++s) stable.push_back(engine.create_session(profile));

  std::atomic<bool> stop{false};
  // One producer per session-pair: each ring stream keeps its single
  // producer (SPSC contract).
  auto producer = [&](std::size_t a, std::size_t b) {
    wifi::CsiMeasurement m = measurement(0.0, 0.0);
    imu::ImuSample imu{};
    double t = 0.0;
    while (!stop.load(std::memory_order_acquire)) {
      t += 0.005;
      const double phi = synthetic_phase(0.6 * std::sin(0.9 * t));
      for (std::size_t k = 0; k < m.h[0].size(); ++k) {
        m.h[0][k] = std::polar(1.0, phi);
      }
      m.t = t;
      (void)engine.offer_csi(stable[a], m);
      (void)engine.offer_csi(stable[b], m);
      imu.t = t;
      (void)engine.offer_imu(stable[a], imu);
      (void)engine.offer_imu(stable[b], imu);
    }
  };
  std::thread p1(producer, 0, 1);
  std::thread p2(producer, 2, 3);
  std::thread churn([&] {
    for (int k = 0; k < 30; ++k) {
      const SessionId id = engine.create_session(profile);
      (void)engine.push_csi(id, measurement(0.1 * k, 0.2));
      (void)engine.estimate_one(id, 0.1 * k);
      EXPECT_TRUE(engine.destroy_session(id));
    }
  });
  for (int k = 0; k < 100; ++k) {
    (void)engine.estimate_all(0.05 * (k + 1));
  }
  churn.join();
  stop.store(true, std::memory_order_release);
  p1.join();
  p2.join();
  EXPECT_EQ(engine.session_count(), 4u);

  // Conservation: after a final drain, every enqueued sample was either
  // applied or displaced by the overload policy — none lost, none
  // duplicated.
  while (engine.drain() > 0) {
  }
  const obs::IngestStats& is = sink.ingest;
  EXPECT_EQ(is.csi_enqueued.value(),
            is.drained_csi.value() + is.csi_dropped_oldest.value());
  EXPECT_EQ(is.imu_enqueued.value(),
            is.drained_imu.value() + is.imu_dropped_oldest.value());
}

}  // namespace
}  // namespace vihot::engine
