#include "sim/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "engine/tracker_engine.h"

namespace vihot::sim {

namespace {

/// One drive's pre-generated inputs plus feed cursors.
struct FleetSession {
  engine::SessionId id = engine::kNoSession;
  std::unique_ptr<DriveSession> drive;
  std::vector<wifi::CsiMeasurement> csi;
  std::vector<imu::ImuSample> imu;
  std::vector<camera::CameraTracker::Estimate> cam;
  std::size_t ci = 0;
  std::size_t ii = 0;
  std::size_t mi = 0;
  std::size_t fallback = 0;
};

}  // namespace

FleetResult run_fleet(const ScenarioConfig& config,
                      std::size_t num_threads,
                      obs::Sink* sink,
                      engine::RecordTap* tap) {
  FleetResult out;
  out.sessions = config.runtime_sessions;

  obs::Sink local_sink;
  if (sink == nullptr) sink = &local_sink;

  ExperimentRunner runner(config);
  engine::IngestConfig ingest = config.ingest;
  if (!config.async_ingest) {
    // Rings disabled: offer_* would degrade to push anyway, but a zero
    // capacity also skips the drain scan in estimate_all().
    ingest.csi_capacity = 0;
    ingest.imu_capacity = 0;
  }
  engine::TrackerEngine::Config ec;
  ec.num_threads = num_threads;
  ec.sink = sink;
  ec.ingest = ingest;
  ec.tap = tap;
  engine::TrackerEngine eng(ec);
  const auto profile = eng.add_profile(runner.build_profile());

  // Per-session substrate, seeded like ExperimentRunner::run_session.
  const double duration = config.runtime_duration_s;
  std::vector<FleetSession> fleet(config.runtime_sessions);
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    FleetSession& fs = fleet[s];
    util::Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));

    const motion::HeadPositionGrid grid(config.driver.head_center,
                                        config.num_positions,
                                        config.position_spacing_m);
    std::size_t slot = config.runtime_position_slot >= 0
                           ? static_cast<std::size_t>(
                                 config.runtime_position_slot)
                           : grid.count() / 2;
    slot = std::min(slot, grid.count() - 1);
    geom::Vec3 head_pos = grid.position(slot);
    head_pos += geom::Vec3{rng.normal(0.0, config.position_jitter_m * 0.4),
                           rng.normal(0.0, config.position_jitter_m),
                           rng.normal(0.0, config.position_jitter_m * 0.3)};
    head_pos += geom::Vec3{0.0, config.seat_shift_m, 0.0};

    util::Rng chan_rng = rng.fork("channel");
    const channel::ChannelModel channel =
        make_channel(config, config.cabin_drift_m, chan_rng);
    wifi::WifiLink link(channel, config.noise, config.scheduler,
                        rng.fork("link"));
    fs.drive =
        std::make_unique<DriveSession>(config, head_pos, rng.fork("drive"));

    fs.csi = link.capture(0.0, duration, [&](double t) {
      return fs.drive->cabin_state_at(t);
    });
    imu::PhoneImu phone_imu(imu::PhoneImu::Config{}, rng.fork("imu"));
    fs.imu = phone_imu.capture(0.0, duration, fs.drive->car_dynamics(),
                               fs.drive->steering());
    camera::CameraTracker camera(camera::CameraTracker::Config{},
                                 rng.fork("camera"));
    fs.cam = camera.capture(0.0, duration,
                            [&](double t) { return fs.drive->head_at(t); });

    // Transport faults rewrite the clean captures into what the ingest
    // boundary would actually receive (loss, gaps, reordering, NaNs).
    // The camera stream is deliberately left clean: it is the fallback
    // the faulted CSI path degrades to.
    if (config.faults.enabled) {
      FaultInjector injector(config.faults, rng.fork("faults"));
      fs.csi = injector.corrupt(std::move(fs.csi));
      fs.imu = injector.corrupt(std::move(fs.imu));
      out.faults += injector.report();
    }

    fs.id = eng.create_session(profile, config.tracker);
  }

  // Common timeline: feed every session its due samples, then one batch
  // tick over the whole fleet.
  const double dt_est = 1.0 / config.estimate_rate_hz;
  const auto wall_start = std::chrono::steady_clock::now();
  for (double t_est = config.warmup_s; t_est < duration; t_est += dt_est) {
    for (FleetSession& fs : fleet) {
      // `!(t > t_est)` instead of `t <= t_est`: a fault-poisoned NaN
      // timestamp compares false both ways, and must be delivered (for
      // the ingest guard to reject) rather than wedge the cursor.
      while (fs.ci < fs.csi.size() && !(fs.csi[fs.ci].t > t_est)) {
        const wifi::CsiMeasurement& m = fs.csi[fs.ci++];
        config.async_ingest ? eng.offer_csi(fs.id, m)
                            : eng.push_csi(fs.id, m);
      }
      while (fs.ii < fs.imu.size() && !(fs.imu[fs.ii].t > t_est)) {
        const imu::ImuSample& s = fs.imu[fs.ii++];
        config.async_ingest ? eng.offer_imu(fs.id, s)
                            : eng.push_imu(fs.id, s);
      }
      while (fs.mi < fs.cam.size() && fs.cam[fs.mi].t <= t_est) {
        eng.push_camera(fs.id, fs.cam[fs.mi++]);
      }
    }

    const std::span<const core::TrackResult> batch = eng.estimate_all(t_est);
    ++out.ticks;

    for (std::size_t s = 0; s < fleet.size(); ++s) {
      const core::TrackResult& r = batch[s];
      if (r.mode == core::TrackingMode::kCameraFallback) {
        ++fleet[s].fallback;
      }
      if (!r.valid) continue;
      const motion::HeadState truth = fleet[s].drive->head_at(t_est);
      const bool in_event =
          std::abs(truth.pose.theta) > config.eval_min_angle_rad ||
          std::abs(truth.theta_dot) > config.eval_min_rate_rad_s;
      if (!in_event) continue;
      out.errors.add(angular_error_deg(r.theta_rad, truth.pose.theta));
    }
  }
  const auto wall_end = std::chrono::steady_clock::now();
  out.serve_wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();

  if (out.serve_wall_s > 0.0 && out.ticks > 0) {
    out.session_estimates_per_s =
        static_cast<double>(out.sessions * out.ticks) / out.serve_wall_s;
  }
  if (!fleet.empty() && out.ticks > 0) {
    double fallback_sum = 0.0;
    for (const FleetSession& fs : fleet) {
      fallback_sum += static_cast<double>(fs.fallback) /
                      static_cast<double>(out.ticks);
    }
    out.mean_fallback_fraction =
        fallback_sum / static_cast<double>(fleet.size());
  }

  // Observability rollup: copy out of the engine before it is destroyed.
  out.stage_stats = obs::snapshot(sink->tracker);
  out.worker_items = eng.worker_items_drained();
  const obs::EngineStats& es = sink->engine;
  out.out_of_order_feeds = es.out_of_order_csi.value() +
                           es.out_of_order_imu.value() +
                           es.out_of_order_camera.value();
  out.max_csi_feed_gap_ms = es.csi_feed_gap_ms.max();
  out.mean_batch_latency_us = es.batch_latency_us.mean();
  out.non_finite_feeds = es.non_finite_csi.value() +
                         es.non_finite_imu.value() +
                         es.non_finite_camera.value();
  out.stale_relocks = out.stage_stats.stale_window_relocks;
  const obs::IngestStats& is = sink->ingest;
  out.ingest_enqueued = is.csi_enqueued.value() + is.imu_enqueued.value();
  out.ingest_dropped =
      is.csi_dropped_newest.value() + is.csi_dropped_oldest.value() +
      is.imu_dropped_newest.value() + is.imu_dropped_oldest.value();
  return out;
}

}  // namespace vihot::sim
