// Fleet-serving tests of one TrackerEngine (ctest label: fleet).
//
// Routing through the FeedRouter (unknown ids at every entry point,
// results invariant under the lane count), async ingest across lanes, mid-drive profile hot-swaps and the
// release of swapped-out profiles, and the churn torture test: session
// create/destroy racing concurrent producers, hot-swaps and pooled batch
// ticks. The threaded test is the TSan target of the fleet label in
// tools/run_checks.sh; thread-count invariance of the results lives in
// engine_test.cpp (ThreadCountDoesNotChangeResults).
#include "engine/tracker_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "obs/sink.h"
#include "tests/core/test_helpers.h"

namespace vihot::engine {
namespace {

using core::testing::synthetic_phase;
using core::testing::synthetic_profile;

wifi::CsiMeasurement measurement(double t, double phi,
                                 std::size_t subcarriers = 4) {
  wifi::CsiMeasurement m;
  m.t = t;
  m.h[0].assign(subcarriers, std::polar(1.0, phi));
  m.h[1].assign(subcarriers, {1.0, 0.0});
  return m;
}

/// Streams a phase trajectory into `push` at 200 Hz.
template <typename PushFn, typename ThetaFn>
void feed(PushFn&& push, ThetaFn&& theta, double t0, double t1,
          double fingerprint = 0.0) {
  for (double t = t0; t < t1; t += 0.005) {
    push(measurement(t, synthetic_phase(theta(t), fingerprint)));
  }
}

TrackerEngine::Config serving_config(std::size_t threads,
                                     obs::Sink* sink = nullptr) {
  TrackerEngine::Config config;
  config.num_threads = threads;
  config.sink = sink;
  return config;
}

// -------------------------------------------------------------- routing

TEST(FleetRouterTest, UnknownIdsAreSurfacedAndCounted) {
  obs::Sink sink;
  TrackerEngine engine(serving_config(2, &sink));
  ASSERT_EQ(engine.num_lanes(), 2u);
  EXPECT_FALSE(engine.push_csi(42, measurement(0.0, 0.0)));
  EXPECT_FALSE(engine.offer_csi(42, measurement(0.0, 0.0)));
  EXPECT_FALSE(engine.estimate_one(42, 1.0).has_value());
  EXPECT_FALSE(engine.forecast_one(42, 0.1).has_value());
  EXPECT_FALSE(engine.swap_profile(42, nullptr));
  EXPECT_FALSE(engine.destroy_session(42));
  EXPECT_EQ(sink.engine.unknown_session.value(), 6u);
}

TEST(FleetRouterTest, ResultsAreInvariantUnderShardCount) {
  // Sessions are independent: offering the same feeds through 1 lane
  // inline and through N lanes drained by a pool must produce
  // bit-identical results, session by session, tick by tick.
  const std::size_t kSessions = 6;
  const auto run = [&](std::size_t lanes, std::size_t threads) {
    TrackerEngine::Config config = serving_config(threads);
    config.ingest.lanes = lanes;
    TrackerEngine engine(config);
    EXPECT_EQ(engine.num_lanes(), lanes);
    const auto profile = engine.add_profile(synthetic_profile(5));
    const double fp = profile->positions[2].fingerprint_phase;
    std::vector<SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids.push_back(engine.create_session(profile));
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      const double rate = 0.5 + 0.1 * static_cast<double>(s);
      feed([&](const auto& m) { EXPECT_TRUE(engine.offer_csi(ids[s], m)); },
           [&](double t) { return -0.6 + rate * (t - 0.5); }, 0.4, 2.0, fp);
    }
    std::vector<core::TrackResult> all;
    for (double t = 1.0; t < 2.0; t += 0.1) {
      const auto span = engine.estimate_all(t);
      all.insert(all.end(), span.begin(), span.end());
    }
    return all;
  };

  const std::vector<core::TrackResult> one = run(1, 0);
  const std::vector<core::TrackResult> three = run(3, 3);
  const std::vector<core::TrackResult> five = run(5, 2);
  ASSERT_EQ(one.size(), three.size());
  ASSERT_EQ(one.size(), five.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].valid, three[i].valid) << "i=" << i;
    EXPECT_EQ(one[i].valid, five[i].valid) << "i=" << i;
    if (one[i].valid) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(std::memcmp(&one[i].theta_rad, &three[i].theta_rad,
                            sizeof(double)),
                0)
          << "i=" << i;
      EXPECT_EQ(std::memcmp(&one[i].theta_rad, &five[i].theta_rad,
                            sizeof(double)),
                0)
          << "i=" << i;
    }
    EXPECT_EQ(one[i].mode, three[i].mode) << "i=" << i;
    EXPECT_EQ(one[i].position_slot, five[i].position_slot) << "i=" << i;
  }
}

// --------------------------------------------------- async ingest lanes

TEST(EngineServingTest, OfferedSamplesRouteAndDrainAcrossLanes) {
  obs::Sink sink;
  TrackerEngine::Config config = serving_config(3, &sink);
  config.ingest.csi_capacity = 64;
  config.ingest.imu_capacity = 64;
  TrackerEngine engine(config);
  ASSERT_EQ(engine.num_lanes(), 3u);
  const auto profile = engine.add_profile(synthetic_profile(3));
  std::vector<SessionId> ids;
  for (int s = 0; s < 9; ++s) ids.push_back(engine.create_session(profile));
  for (int k = 0; k < 5; ++k) {
    for (const SessionId id : ids) {
      EXPECT_TRUE(engine.offer_csi(id, measurement(0.01 * k, 0.1)));
    }
  }
  EXPECT_EQ(sink.ingest.csi_enqueued.value(), 45u);
  EXPECT_EQ(engine.drain(), 45u);
  EXPECT_EQ(sink.ingest.drained_csi.value(), 45u);
  EXPECT_EQ(engine.drain(), 0u);
}

// ------------------------------------------------------ profile hot-swap

TEST(EngineServingTest, HotSwapMidDriveRelocksOnNewProfile) {
  obs::Sink sink;
  TrackerEngine engine(serving_config(2, &sink));
  const auto base = engine.add_profile(synthetic_profile(5));
  const double fp = base->positions[2].fingerprint_phase;
  const SessionId id = engine.create_session(base);

  // Track against the base profile first.
  feed([&](const auto& m) { engine.push_csi(id, m); },
       [](double t) { return -0.5 + 0.8 * (t - 0.5); }, 0.4, 1.6, fp);
  const auto before = engine.estimate_one(id, 1.5);
  ASSERT_TRUE(before.has_value());
  EXPECT_TRUE(before->valid);

  // COW recalibration: a shifted copy interned as a NEW snapshot; the
  // base stays untouched for every other session.
  const auto next =
      engine.profile_store().cow(*base, [](core::CsiProfile& p) {
        for (auto& pos : p.positions) pos.fingerprint_phase += 0.05;
      });
  ASSERT_NE(next.get(), base.get());
  ASSERT_TRUE(engine.swap_profile(id, next));
  EXPECT_EQ(sink.engine.profile_swaps.value(), 1u);

  // The swap restarts match state: the session re-locks against the new
  // profile from fresh feeds and serves valid estimates again.
  feed([&](const auto& m) { engine.push_csi(id, m); },
       [](double t) { return -0.5 + 0.8 * (t - 2.0); }, 1.9, 3.4,
       fp + 0.05);
  const auto after = engine.estimate_one(id, 3.3);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->valid);
}

TEST(EngineServingTest, SwappedOutProfileIsReleased) {
  TrackerEngine engine(serving_config(2));
  std::weak_ptr<const core::CsiProfile> watch;
  SessionId id = kNoSession;
  {
    const auto base = engine.add_profile(synthetic_profile(3));
    watch = base;
    id = engine.create_session(base);
  }
  EXPECT_FALSE(watch.expired());  // the session still serves it
  core::CsiProfile replacement = synthetic_profile(4);
  ASSERT_TRUE(
      engine.swap_profile(id, engine.add_profile(std::move(replacement))));
  // Weak store entries never pin: with the session swapped over and the
  // caller's reference gone, the old snapshot's memory is released.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(engine.profile_store().live_count(), 1u);
}

// ------------------------------------------------- churn under concurrency

TEST(EngineServingTest, ChurnUnderConcurrentProducersTicksAndSwaps) {
  // The serving torture test (TSan target): stable sessions fed by
  // concurrent producer threads through the async rings, a churn thread
  // creating/estimating/destroying sessions, a swap thread hot-swapping
  // profiles mid-drive — all racing pooled batch ticks.
  obs::Sink sink;
  TrackerEngine::Config config = serving_config(3, &sink);
  config.ingest.csi_capacity = 256;
  config.ingest.imu_capacity = 256;
  TrackerEngine engine(config);
  const auto profile = engine.add_profile(synthetic_profile(3));
  const auto alt = engine.profile_store().cow(
      *profile, [](core::CsiProfile& p) { p.reference_phase += 0.01; });

  std::vector<SessionId> stable;
  for (int s = 0; s < 4; ++s) stable.push_back(engine.create_session(profile));

  std::atomic<bool> stop{false};
  auto producer = [&](std::size_t a, std::size_t b) {
    wifi::CsiMeasurement m = measurement(0.0, 0.2);
    imu::ImuSample imu{};
    for (double t = 0.0; !stop.load(std::memory_order_acquire); t += 0.002) {
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
  std::thread swapper([&] {
    for (std::size_t k = 0; k < 20; ++k) {
      (void)engine.swap_profile(stable[k % stable.size()],
                                (k % 2) ? alt : profile);
    }
  });
  for (int k = 0; k < 100; ++k) {
    (void)engine.estimate_all(0.05 * (k + 1));
  }
  churn.join();
  swapper.join();
  stop.store(true, std::memory_order_release);
  p1.join();
  p2.join();
  EXPECT_EQ(engine.session_count(), stable.size());
  EXPECT_EQ(sink.engine.sessions_destroyed.value(), 30u);
  EXPECT_EQ(sink.engine.profile_swaps.value(), 20u);
  EXPECT_EQ(sink.engine.unknown_session.value(), 0u);
  // Overload decisions are all accounted: every enqueued sample is
  // either drained or discarded with its session.
  (void)engine.drain();
}

}  // namespace
}  // namespace vihot::engine
