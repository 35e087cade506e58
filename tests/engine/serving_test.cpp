// Fleet-serving tests of one TrackerEngine (ctest label: fleet).
//
// Routing (unknown ids at every entry point, offered feeds giving
// results invariant under the thread count), the per-session drain jobs,
// and the churn torture test: session create/destroy racing concurrent
// producers and pooled batch ticks. The threaded test is the TSan target of the fleet label in
// tools/run_checks.sh; thread-count invariance of the results lives in
// engine_test.cpp (ThreadCountDoesNotChangeResults).
#include "engine/tracker_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstring>
#include <memory>
#include <string>
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
  ASSERT_EQ(engine.num_threads(), 2u);
  EXPECT_FALSE(engine.push_csi(42, measurement(0.0, 0.0)));
  EXPECT_FALSE(engine.offer_csi(42, measurement(0.0, 0.0)));
  EXPECT_FALSE(engine.destroy_session(42));
  EXPECT_EQ(sink.engine.unknown_session.value(), 3u);
}

TEST(FleetRouterTest, ResultsAreInvariantUnderShardCount) {
  // Sessions are independent: offering the same feeds drained and
  // estimated inline and by pools of N threads, one job per session,
  // must produce bit-identical results, session by session, tick by
  // tick.
  const std::size_t kSessions = 6;
  const auto run = [&](std::size_t threads) {
    TrackerEngine engine(serving_config(threads));
    EXPECT_EQ(engine.num_threads(), threads);
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

  const std::vector<core::TrackResult> inline_run = run(0);
  for (const std::size_t threads : {3u, 2u, 1u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    const std::vector<core::TrackResult> pooled = run(threads);
    ASSERT_EQ(inline_run.size(), pooled.size());
    for (std::size_t i = 0; i < inline_run.size(); ++i) {
      EXPECT_EQ(inline_run[i].valid, pooled[i].valid) << "i=" << i;
      if (inline_run[i].valid) {
        // Bit-identical, not approximately equal.
        EXPECT_EQ(std::memcmp(&inline_run[i].theta_rad, &pooled[i].theta_rad,
                              sizeof(double)),
                  0)
            << "i=" << i;
      }
      EXPECT_EQ(inline_run[i].mode, pooled[i].mode) << "i=" << i;
      EXPECT_EQ(inline_run[i].position_slot, pooled[i].position_slot)
          << "i=" << i;
    }
  }
}

// ------------------------------------------- per-session drain jobs

/// Pool items run so far, summed over the workers.
std::uint64_t pool_items(const TrackerEngine& engine) {
  std::uint64_t total = 0;
  for (const std::uint64_t n : engine.worker_items_drained()) total += n;
  return total;
}

TEST(EngineServingTest, OfferedSamplesRouteAndDrainAcrossLanes) {
  // drain() is one pool job per session, and no job at all when nothing
  // is queued.
  obs::Sink sink;
  TrackerEngine::Config config = serving_config(3, &sink);
  config.ingest.csi_capacity = 64;
  config.ingest.imu_capacity = 64;
  TrackerEngine engine(config);
  ASSERT_EQ(engine.num_threads(), 3u);
  const auto profile = engine.add_profile(synthetic_profile(3));
  std::vector<SessionId> ids;
  for (int s = 0; s < 9; ++s) ids.push_back(engine.create_session(profile));
  for (int k = 0; k < 5; ++k) {
    for (const SessionId id : ids) {
      EXPECT_TRUE(engine.offer_csi(id, measurement(0.01 * k, 0.1)));
    }
  }
  EXPECT_EQ(sink.ingest.csi_enqueued.value(), 45u);
  const std::uint64_t items = pool_items(engine);
  EXPECT_EQ(engine.drain(), 45u);
  EXPECT_EQ(sink.ingest.drained_csi.value(), 45u);
  EXPECT_EQ(sink.ingest.drain_passes.value(), 9u);
  EXPECT_EQ(pool_items(engine), items + 9);
  EXPECT_EQ(engine.drain(), 0u);
  EXPECT_EQ(pool_items(engine), items + 9);
}

// ------------------------------------------------- churn under concurrency

TEST(EngineServingTest, ChurnUnderConcurrentProducersAndTicks) {
  // The serving torture test (TSan target): stable sessions fed by
  // concurrent producer threads through the async rings and a churn
  // thread creating/feeding/destroying sessions, all racing pooled batch
  // ticks.
  obs::Sink sink;
  TrackerEngine::Config config = serving_config(3, &sink);
  config.ingest.csi_capacity = 256;
  config.ingest.imu_capacity = 256;
  TrackerEngine engine(config);
  const auto profile = engine.add_profile(synthetic_profile(3));

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
  EXPECT_EQ(engine.session_count(), stable.size());
  EXPECT_EQ(sink.engine.sessions_destroyed.value(), 30u);
  EXPECT_EQ(sink.engine.unknown_session.value(), 0u);
  // Overload decisions are all accounted: every enqueued sample is
  // either drained or discarded with its session.
  (void)engine.drain();
}

}  // namespace
}  // namespace vihot::engine
