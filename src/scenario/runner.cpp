#include "scenario/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "camera/camera_tracker.h"
#include "channel/cabin.h"
#include "imu/imu.h"
#include "sim/drive_sim.h"
#include "sim/experiment.h"
#include "sim/fault_injector.h"
#include "wifi/link.h"

namespace vihot::scenario {

namespace {

/// One engine session's pre-generated streams plus feed cursors. The
/// driver feed spans the whole run; tracked-rider feeds span their
/// presence window and are created/destroyed live by the tick loop.
struct Feed {
  engine::SessionId id = engine::kNoSession;
  bool created = false;
  bool destroyed = false;
  double enter = 0.0;
  double leave = 0.0;
  std::shared_ptr<const core::CsiProfile> profile;
  core::TrackerConfig tracker{};
  const sim::DriveSession* drive = nullptr;
  /// Roster index into ScenarioConfig::occupants; -1 = the driver.
  int occupant = -1;
  std::size_t out_index = 0;  ///< index into ScenarioOutcome::occupants
  std::vector<wifi::CsiMeasurement> csi;
  std::vector<imu::ImuSample> imu;
  std::vector<camera::CameraTracker::Estimate> cam;
  std::size_t ci = 0;
  std::size_t ii = 0;
  std::size_t mi = 0;
};

motion::HeadState truth_at(const Feed& f, double t) {
  return f.occupant < 0
             ? f.drive->head_at(t)
             : f.drive->occupant_head_at(static_cast<std::size_t>(f.occupant),
                                         t);
}

std::string format_deg(const char* what, const std::string& name,
                       double got, double bound) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %s %.2f deg > %.2f deg", name.c_str(),
                what, got, bound);
  return buf;
}

}  // namespace

sim::ErrorCollector ScenarioOutcome::merged_errors() const {
  sim::ErrorCollector merged;
  for (const OccupantOutcome& occ : occupants) merged.merge(occ.errors);
  return merged;
}

ScenarioOutcome run_pack(const ScenarioSpec& spec, const RunOptions& options,
                         bool check_envelope) {
  ScenarioOutcome out;
  out.pack = spec.name;

  sim::ScenarioConfig config = spec.to_config(options.duration_override_s);
  if (options.seed_override != 0) config.seed = options.seed_override;
  const double duration = config.runtime_duration_s;

  obs::Sink local_sink;
  obs::Sink* sink = options.sink != nullptr ? options.sink : &local_sink;
  sink->scenario.runs.inc();

  engine::IngestConfig ingest = config.ingest;
  if (!config.async_ingest) {
    ingest.csi_capacity = 0;
    ingest.imu_capacity = 0;
  }
  engine::TrackerEngine::Config ec;
  ec.num_threads = options.threads;
  ec.sink = sink;
  ec.ingest = ingest;
  ec.tap = options.tap;
  engine::TrackerEngine eng(ec);

  channel::CabinScene base_scene = channel::make_cabin_scene(config.layout);
  base_scene.driver_head_center = config.driver.head_center;

  sim::ExperimentRunner runner(config);

  // Profiles: the driver against the stock scene (salt 0 — bit-identical
  // to the classic pipeline), each tracked rider against its
  // occupant_view antenna weighting. Shared across cabins. (The
  // RX-beamforming null was evaluated here and measured to HURT: the
  // y = h0 - r*h1 combination degrades the tracked head's own
  // phase-difference signature more than it suppresses the interferer.
  // The per-antenna head-path weighting in the synthesizer plus the
  // re-aimed TX null carry the crosstalk suppression instead.)
  const auto driver_profile = eng.add_profile(runner.build_profile());

  // Non-driver roster, in ScenarioConfig::occupants order (to_config
  // lowers them in spec order, so the indices line up).
  std::vector<const OccupantSpec*> riders;
  for (const OccupantSpec& occ : spec.occupants) {
    if (occ.role != OccupantRole::kDriver) riders.push_back(&occ);
  }

  std::vector<std::shared_ptr<const core::CsiProfile>> rider_profiles(
      riders.size());
  for (std::size_t r = 0; r < riders.size(); ++r) {
    if (!riders[r]->tracked) continue;
    const geom::Vec3 seat = seat_head_center(riders[r]->role);
    const channel::CabinScene view =
        channel::occupant_view(base_scene, seat, config.driver.head_center);
    // Center the profile grid so slot count/2 lands EXACTLY on the seat
    // (where OccupantMotion holds the rider): for an even grid the
    // center sits between slots, which would bake in a permanent
    // half-spacing seat shift the driver's slot-aligned runtime (see
    // run_fleet) never suffers.
    const motion::HeadPositionGrid probe(seat, config.num_positions,
                                         config.position_spacing_m);
    const geom::Vec3 grid_center =
        seat - (probe.position(probe.count() / 2) - seat);
    rider_profiles[r] =
        eng.add_profile(runner.build_profile_at(view, grid_center, r + 1));
  }

  // Per-cabin substrate, seeded exactly like sim::run_fleet seeds its
  // sessions; the rider view forks are drawn AFTER the five historical
  // driver forks so the driver stream stays bit-identical to the classic
  // single-occupant fleet under the same seed.
  std::vector<std::unique_ptr<sim::DriveSession>> drives;
  std::vector<Feed> feeds;
  const OccupantSpec* driver_spec = spec.driver();
  for (std::size_t c = 0; c < spec.cabins; ++c) {
    util::Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)));

    const motion::HeadPositionGrid grid(config.driver.head_center,
                                        config.num_positions,
                                        config.position_spacing_m);
    const std::size_t slot = grid.count() / 2;
    geom::Vec3 head_pos = grid.position(slot);
    head_pos += geom::Vec3{rng.normal(0.0, config.position_jitter_m * 0.4),
                           rng.normal(0.0, config.position_jitter_m),
                           rng.normal(0.0, config.position_jitter_m * 0.3)};

    util::Rng chan_rng = rng.fork("channel");
    const channel::ChannelModel channel =
        sim::make_channel(config, config.cabin_drift_m, chan_rng);
    wifi::WifiLink link(channel, config.noise, config.scheduler,
                        rng.fork("link"));
    drives.push_back(std::make_unique<sim::DriveSession>(config, head_pos,
                                                         rng.fork("drive")));
    const sim::DriveSession& drive = *drives.back();

    Feed df;
    df.enter = 0.0;
    df.leave = duration;
    df.profile = driver_profile;
    df.tracker = config.tracker;
    df.drive = &drive;
    df.occupant = -1;
    df.out_index = out.occupants.size();
    df.csi = link.capture(0.0, duration, [&](double t) {
      return drive.cabin_state_at(t);
    });
    imu::PhoneImu phone_imu(imu::PhoneImu::Config{}, rng.fork("imu"));
    df.imu = phone_imu.capture(0.0, duration, drive.car_dynamics(),
                               drive.steering());
    camera::CameraTracker camera(camera::CameraTracker::Config{},
                                 rng.fork("camera"));
    df.cam = camera.capture(0.0, duration,
                            [&](double t) { return drive.head_at(t); });
    if (config.faults.enabled) {
      sim::FaultInjector injector(config.faults, rng.fork("faults"));
      df.csi = injector.corrupt(std::move(df.csi));
      df.imu = injector.corrupt(std::move(df.imu));
    }

    OccupantOutcome doo;
    doo.name = driver_spec != nullptr ? driver_spec->name : "driver";
    doo.tracked = true;
    doo.cabin = c;
    doo.enter_s = 0.0;
    doo.leave_s = duration;
    out.occupants.push_back(std::move(doo));
    sink->scenario.occupants_tracked.inc();
    feeds.push_back(std::move(df));

    for (std::size_t r = 0; r < riders.size(); ++r) {
      const OccupantSpec& ro = *riders[r];
      const sim::CabinOccupant& co = config.occupants[r];
      const double enter = co.enter_s;
      const double leave = co.leave_s < 0.0 ? duration : co.leave_s;

      OccupantOutcome roo;
      roo.name = ro.name;
      roo.tracked = ro.tracked;
      roo.cabin = c;
      roo.enter_s = enter;
      roo.leave_s = leave;

      if (!ro.tracked) {
        sink->scenario.occupants_untracked.inc();
        out.occupants.push_back(std::move(roo));
        continue;
      }
      sink->scenario.occupants_tracked.inc();

      Feed rf;
      rf.enter = enter;
      rf.leave = leave;
      rf.profile = rider_profiles[r];
      rf.tracker = config.tracker;
      rf.drive = &drive;
      rf.occupant = static_cast<int>(r);
      rf.out_index = out.occupants.size();

      const std::string tag = std::to_string(r);
      const channel::CabinScene view = channel::occupant_view(
          base_scene, co.seat_head_center, config.driver.head_center);
      const channel::ChannelModel view_channel(
          view, channel::SubcarrierGrid(config.subcarrier),
          config.driver.scatter);
      wifi::WifiLink view_link(view_channel, config.noise, config.scheduler,
                               rng.fork("view_link" + tag));
      rf.csi = view_link.capture(enter, leave, [&](double t) {
        return drive.occupant_view_state_at(r, t);
      });
      imu::PhoneImu rider_imu(imu::PhoneImu::Config{},
                              rng.fork("view_imu" + tag));
      rf.imu = rider_imu.capture(enter, leave, drive.car_dynamics(),
                                 drive.steering());
      camera::CameraTracker rider_cam(camera::CameraTracker::Config{},
                                      rng.fork("view_cam" + tag));
      rf.cam = rider_cam.capture(enter, leave, [&](double t) {
        return drive.occupant_head_at(r, t);
      });
      if (config.faults.enabled) {
        sim::FaultInjector injector(config.faults,
                                    rng.fork("view_faults" + tag));
        rf.csi = injector.corrupt(std::move(rf.csi));
        rf.imu = injector.corrupt(std::move(rf.imu));
      }

      out.occupants.push_back(std::move(roo));
      feeds.push_back(std::move(rf));
    }
  }

  // Common timeline with live session churn: sessions open the tick
  // their occupant enters and close the tick after they leave — which is
  // exactly what a recording tap sees (kSessionStart / kSessionEnd
  // mid-log). Single-threaded and fork-ordered, so the same seed yields
  // the same event sequence byte for byte.
  std::unordered_map<engine::SessionId, std::size_t> by_id;
  const double dt_est = 1.0 / config.estimate_rate_hz;
  for (double t_est = config.warmup_s; t_est < duration; t_est += dt_est) {
    for (Feed& f : feeds) {
      if (!f.created && f.enter <= t_est) {
        f.id = eng.create_session(f.profile, f.tracker);
        f.created = true;
        by_id[f.id] = static_cast<std::size_t>(&f - feeds.data());
        ++out.sessions_opened;
        sink->scenario.sessions_opened.inc();
      }
      if (f.created && !f.destroyed && t_est >= f.leave) {
        eng.destroy_session(f.id);
        f.destroyed = true;
        by_id.erase(f.id);
        ++out.sessions_closed;
        sink->scenario.sessions_closed.inc();
      }
    }

    for (Feed& f : feeds) {
      if (!f.created || f.destroyed) continue;
      // `!(t > t_est)` instead of `t <= t_est`: a fault-poisoned NaN
      // timestamp compares false both ways, and must be delivered (for
      // the ingest guard to reject) rather than wedge the cursor.
      while (f.ci < f.csi.size() && !(f.csi[f.ci].t > t_est)) {
        const wifi::CsiMeasurement& m = f.csi[f.ci++];
        config.async_ingest ? eng.offer_csi(f.id, m) : eng.push_csi(f.id, m);
      }
      while (f.ii < f.imu.size() && !(f.imu[f.ii].t > t_est)) {
        const imu::ImuSample& s = f.imu[f.ii++];
        config.async_ingest ? eng.offer_imu(f.id, s) : eng.push_imu(f.id, s);
      }
      while (f.mi < f.cam.size() && f.cam[f.mi].t <= t_est) {
        eng.push_camera(f.id, f.cam[f.mi++]);
      }
    }

    const std::span<const core::TrackResult> batch = eng.estimate_all(t_est);
    const std::span<const engine::SessionId> ids = eng.session_ids_span();
    ++out.ticks;
    sink->scenario.ticks.inc();

    for (std::size_t k = 0; k < ids.size(); ++k) {
      const auto it = by_id.find(ids[k]);
      if (it == by_id.end()) continue;
      const Feed& f = feeds[it->second];
      OccupantOutcome& oo = out.occupants[f.out_index];
      const core::TrackResult& r = batch[k];
      if (!r.valid) continue;
      if (oo.relock_s < 0.0) {
        oo.relock_s = t_est - oo.enter_s;
        sink->scenario.relock_s.observe(oo.relock_s);
      }
      // Per-session warmup: a freshly churned-in rider gets the same
      // grace window the run-level warmup gives the driver.
      if (t_est < oo.enter_s + config.warmup_s) continue;
      const motion::HeadState truth = truth_at(f, t_est);
      const bool in_event =
          std::abs(truth.pose.theta) > config.eval_min_angle_rad ||
          std::abs(truth.theta_dot) > config.eval_min_rate_rad_s;
      if (in_event) {
        oo.errors.add(sim::angular_error_deg(r.theta_rad, truth.pose.theta));
        ++oo.evaluated;
      }
    }
  }

  if (check_envelope) {
    const AccuracyEnvelope& env = spec.envelope;
    // A shortened run (duration override) scales the sample floor with
    // the eval window so corpus-sized recordings can still gate.
    const double scale =
        spec.duration_s > 0.0 ? std::min(1.0, duration / spec.duration_s)
                              : 1.0;
    const std::size_t min_eval = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(env.min_evaluated) * scale));
    for (const OccupantOutcome& oo : out.occupants) {
      if (!oo.tracked) continue;
      if (oo.evaluated < min_eval) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s: %zu evaluated samples < %zu",
                      oo.name.c_str(), oo.evaluated, min_eval);
        out.envelope_failures.emplace_back(buf);
      } else {
        const double median = oo.errors.median_deg();
        const double p90 = oo.errors.percentile_deg(90.0);
        if (median > env.max_median_deg) {
          out.envelope_failures.push_back(
              format_deg("median", oo.name, median, env.max_median_deg));
        }
        if (p90 > env.max_p90_deg) {
          out.envelope_failures.push_back(
              format_deg("p90", oo.name, p90, env.max_p90_deg));
        }
      }
      if (env.max_relock_s > 0.0 && oo.enter_s > 0.0) {
        if (oo.relock_s < 0.0) {
          out.envelope_failures.push_back(oo.name + ": never locked");
        } else if (oo.relock_s > env.max_relock_s) {
          char buf[160];
          std::snprintf(buf, sizeof(buf), "%s: relock %.2f s > %.2f s",
                        oo.name.c_str(), oo.relock_s, env.max_relock_s);
          out.envelope_failures.emplace_back(buf);
        }
      }
    }
  }
  out.envelope_pass = out.envelope_failures.empty();
  if (check_envelope) {
    (out.envelope_pass ? sink->scenario.envelope_pass
                       : sink->scenario.envelope_fail)
        .inc();
  }
  return out;
}

}  // namespace vihot::scenario
