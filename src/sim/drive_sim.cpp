#include "sim/drive_sim.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace vihot::sim {

DriveSession::DriveSession(const ScenarioConfig& config,
                           geom::Vec3 head_position, util::Rng rng)
    : config_(config), car_(motion::CarDynamics::Config{}) {
  motion::DrivingScanTrajectory::Config scan = config.scan;
  scan.duration_s = config.runtime_duration_s;
  scan.turn_speed_rad_s = resolved_turn_speed(config);
  scan.speed_jitter = config.driver.speed_jitter;
  trajectory_ = std::make_unique<motion::DrivingScanTrajectory>(
      scan, head_position, rng.fork("scan"));

  motion::SteeringModel::Config steer = config.steering;
  steer.duration_s = config.runtime_duration_s;
  steer.enable_turn_events = config.steering_events;
  steering_ =
      std::make_unique<motion::SteeringModel>(steer, rng.fork("steering"));

  if (config.passenger_present) {
    motion::PassengerModel::Config p = config.passenger;
    p.duration_s = config.runtime_duration_s;
    passenger_ =
        std::make_unique<motion::PassengerModel>(p, rng.fork("passenger"));
  }

  breathing_ = std::make_unique<motion::BreathingModel>(
      motion::BreathingModel::Config{}, rng.fork("breathing"));

  motion::EyeMotionModel::Config eye;
  eye.duration_s = config.runtime_duration_s;
  eye.intense = config.intense_eye_motion;
  eye_ = std::make_unique<motion::EyeMotionModel>(eye, rng.fork("eye"));

  motion::MusicVibrationModel::Config music;
  music.playing = config.music_playing;
  music_ = std::make_unique<motion::MusicVibrationModel>(music,
                                                         rng.fork("music"));

  motion::VibrationModel::Config vib = config.vibration;
  vib.enabled = config.antenna_vibration;
  vib.duration_s = config.runtime_duration_s;
  vibration_ =
      std::make_unique<motion::VibrationModel>(vib, rng.fork("vibration"));

  // Scenario-pack extensions fork LAST and only when configured:
  // util::Rng::fork consumes parent state, so any new draw ahead of the
  // historical sequence would silently re-seed every model above and
  // break bit-compatibility with the recorded golden corpus.
  if (config.driver_trajectory == DriverTrajectoryMode::kContinuousSweep) {
    continuous_ = std::make_unique<motion::ContinuousSweepTrajectory>(
        config.continuous, head_position, rng.fork("continuous"));
  }
  occupants_.reserve(config.occupants.size());
  for (std::size_t i = 0; i < config.occupants.size(); ++i) {
    const CabinOccupant& occ = config.occupants[i];
    motion::OccupantMotionConfig mc = occ.motion;
    const double leave =
        occ.leave_s < 0.0 ? config.runtime_duration_s : occ.leave_s;
    mc.duration_s = std::max(leave - occ.enter_s, 0.0);
    occupants_.push_back(std::make_unique<motion::OccupantMotion>(
        mc, occ.seat_head_center,
        rng.fork("occupant" + std::to_string(i))));
  }
}

motion::HeadState DriveSession::head_at(double t) const {
  if (continuous_) return continuous_->at(t);
  return trajectory_->at(t);
}

bool DriveSession::occupant_present(std::size_t index,
                                    double t) const noexcept {
  if (index >= config_.occupants.size()) return false;
  const CabinOccupant& occ = config_.occupants[index];
  if (t < occ.enter_s) return false;
  return occ.leave_s < 0.0 || t < occ.leave_s;
}

motion::HeadState DriveSession::occupant_head_at(std::size_t index,
                                                 double t) const {
  const CabinOccupant& occ = config_.occupants[index];
  return occupants_[index]->at(t - occ.enter_s);
}

channel::CabinState DriveSession::cabin_state_at(double t) const {
  channel::CabinState s;
  const motion::HeadState head = head_at(t);
  s.head = head.pose;

  const motion::SteeringState steer = steering_->at(t);
  // The grip point's rim angle tracks the wheel angle (hands hold on).
  s.steering_rim_angle = steer.wheel_angle_rad;

  if (passenger_) {
    s.passenger_present = true;
    s.passenger_theta = passenger_->theta_at(t);
  }
  s.breathing_displacement_m = breathing_->displacement_at(t);
  s.music_displacement_m = music_->displacement_at(t);
  s.eye_displacement_m = eye_->displacement_at(t);
  s.rx_offset[0] = vibration_->rx_offset_at(0, t);
  s.rx_offset[1] = vibration_->rx_offset_at(1, t);
  s.tx_offset = vibration_->tx_offset_at(t);

  // Roster occupants superimpose one reflection each while present.
  for (std::size_t i = 0; i < occupants_.size(); ++i) {
    if (!occupant_present(i, t)) continue;
    const motion::HeadState os = occupant_head_at(i, t);
    channel::OccupantReflection r;
    r.head_center = os.pose.position;
    r.theta = os.pose.theta;
    r.reflectivity = config_.occupants[i].reflectivity;
    s.occupants.push_back(r);
  }
  return s;
}

channel::CabinState DriveSession::occupant_view_state_at(std::size_t index,
                                                         double t) const {
  // Same cabin instant, re-centered on the tracked occupant: its head
  // takes the driver-head path of the view scene (channel::occupant_view
  // moved driver_head_center/torso to this seat), while the REAL driver
  // and every other present occupant become interfering reflections.
  channel::CabinState s;
  const motion::HeadState tracked = occupant_head_at(index, t);
  s.head = tracked.pose;

  const motion::SteeringState steer = steering_->at(t);
  s.steering_rim_angle = steer.wheel_angle_rad;
  s.breathing_displacement_m = breathing_->displacement_at(t);
  s.music_displacement_m = music_->displacement_at(t);
  s.eye_displacement_m = eye_->displacement_at(t);
  s.rx_offset[0] = vibration_->rx_offset_at(0, t);
  s.rx_offset[1] = vibration_->rx_offset_at(1, t);
  s.tx_offset = vibration_->tx_offset_at(t);

  const motion::HeadState driver = head_at(t);
  channel::OccupantReflection driver_ref;
  driver_ref.head_center = driver.pose.position;
  driver_ref.theta = driver.pose.theta;
  driver_ref.reflectivity = config_.driver.scatter.reflectivity;
  s.occupants.push_back(driver_ref);

  for (std::size_t i = 0; i < occupants_.size(); ++i) {
    if (i == index || !occupant_present(i, t)) continue;
    const motion::HeadState os = occupant_head_at(i, t);
    channel::OccupantReflection r;
    r.head_center = os.pose.position;
    r.theta = os.pose.theta;
    r.reflectivity = config_.occupants[i].reflectivity;
    s.occupants.push_back(r);
  }
  return s;
}

motion::CarState DriveSession::car_at(double t) const {
  return car_.at(t, *steering_);
}

ProfilingMotion::ProfilingMotion(const ScenarioConfig& config,
                                 geom::Vec3 head_position)
    : config_(config),
      head_position_(head_position),
      sweep_(
          [&] {
            motion::SweepTrajectory::Config sc;
            sc.speed_rad_s = resolved_profiling_speed(config);
            // Start the sweep at center moving toward the passenger so
            // the series is continuous with the preceding forward hold.
            sc.phase0 = 0.25;
            return sc;
          }(),
          head_position) {}

motion::HeadState ProfilingMotion::head_at(double u) const {
  if (u < config_.profiling_hold_s) {
    motion::HeadState s;
    s.pose.position = head_position_;
    s.pose.theta = 0.0;
    s.theta_dot = 0.0;
    return s;
  }
  return sweep_.at(u - config_.profiling_hold_s);
}

channel::CabinState ProfilingMotion::cabin_state_at(double u) const {
  channel::CabinState s;
  s.head = head_at(u).pose;
  // Parked: wheel centered, no passenger, no road vibration. Breathing
  // still happens but is frozen at its session mean here — its footprint
  // is evaluated separately (Sec. 5.3.1) and keeping the profiling
  // substrate clean matches the paper's quiet profiling procedure.
  return s;
}

double ProfilingMotion::duration() const noexcept {
  return config_.profiling_hold_s + config_.profiling_sweep_s;
}

channel::ChannelModel make_channel(const ScenarioConfig& config,
                                   double cabin_drift_m, util::Rng& rng) {
  channel::CabinScene scene = channel::make_cabin_scene(config.layout);
  scene.driver_head_center = config.driver.head_center;
  if (cabin_drift_m > 0.0) {
    for (channel::StaticReflector& r : scene.static_reflectors) {
      r.position += geom::Vec3{rng.normal(0.0, cabin_drift_m),
                               rng.normal(0.0, cabin_drift_m),
                               rng.normal(0.0, cabin_drift_m * 0.4)};
    }
  }
  return channel::ChannelModel(scene,
                               channel::SubcarrierGrid(config.subcarrier),
                               config.driver.scatter);
}

}  // namespace vihot::sim
