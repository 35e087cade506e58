// Drive simulator: wires the cabin scene, the motion models and the WiFi
// link into time-indexed state providers for one profiling or run-time
// session.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "channel/cabin.h"
#include "channel/csi_synth.h"
#include "motion/car.h"
#include "motion/head_trajectory.h"
#include "motion/micromotion.h"
#include "motion/passenger.h"
#include "motion/steering.h"
#include "motion/vibration.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "wifi/link.h"

namespace vihot::sim {

/// One run-time driving session's worth of composed models.
class DriveSession {
 public:
  /// `head_position` is where the driver's head actually sits this
  /// session (possibly off the profiled grid).
  DriveSession(const ScenarioConfig& config, geom::Vec3 head_position,
               util::Rng rng);

  /// Ground-truth head state at time t.
  [[nodiscard]] motion::HeadState head_at(double t) const;

  /// Everything the channel needs at time t. Occupants from the
  /// scenario roster superimpose their reflections while present.
  [[nodiscard]] channel::CabinState cabin_state_at(double t) const;

  // --- Scenario-pack occupants (DESIGN.md §5l) -------------------------

  /// Is roster occupant `index` inside its presence window at t?
  [[nodiscard]] bool occupant_present(std::size_t index,
                                      double t) const noexcept;

  /// Ground-truth head state of roster occupant `index` at session time
  /// t (trajectories run on local presence time: entry restarts them).
  [[nodiscard]] motion::HeadState occupant_head_at(std::size_t index,
                                                   double t) const;

  /// Cabin state as seen by a TRACKED occupant's channel view
  /// (channel::occupant_view): the tracked head takes the driver-head
  /// path, and the driver plus every other present occupant enter as
  /// interfering OccupantReflections.
  [[nodiscard]] channel::CabinState occupant_view_state_at(std::size_t index,
                                                           double t) const;

  /// Car body state (for the IMU).
  [[nodiscard]] motion::CarState car_at(double t) const;

  [[nodiscard]] const motion::SteeringModel& steering() const {
    return *steering_;
  }
  [[nodiscard]] const motion::CarDynamics& car_dynamics() const {
    return car_;
  }
  [[nodiscard]] const motion::DrivingScanTrajectory& trajectory() const {
    return *trajectory_;
  }
  [[nodiscard]] const motion::PassengerModel* passenger() const {
    return passenger_.get();
  }

 private:
  const ScenarioConfig& config_;
  std::unique_ptr<motion::DrivingScanTrajectory> trajectory_;
  std::unique_ptr<motion::SteeringModel> steering_;
  motion::CarDynamics car_;
  std::unique_ptr<motion::PassengerModel> passenger_;
  std::unique_ptr<motion::BreathingModel> breathing_;
  std::unique_ptr<motion::EyeMotionModel> eye_;
  std::unique_ptr<motion::MusicVibrationModel> music_;
  std::unique_ptr<motion::VibrationModel> vibration_;
  /// Continuous-sweep driver trajectory (replaces trajectory_'s OUTPUT
  /// when config.driver_trajectory selects it; trajectory_ is still
  /// built so the RNG fork sequence — and thus every historical
  /// recording — is unchanged).
  std::unique_ptr<motion::ContinuousSweepTrajectory> continuous_;
  /// Roster occupant motions, one per config.occupants entry (forked
  /// from the session RNG AFTER every historical fork, and only when
  /// the roster is non-empty).
  std::vector<std::unique_ptr<motion::OccupantMotion>> occupants_;
};

/// Profiling-session motion: hold forward, then sweep (Sec. 3.3).
class ProfilingMotion {
 public:
  ProfilingMotion(const ScenarioConfig& config, geom::Vec3 head_position);

  /// Head state at local session time u in [0, hold + sweep).
  [[nodiscard]] motion::HeadState head_at(double u) const;

  /// Cabin state during profiling: parked car, no steering, no passenger
  /// (the driver profiles alone before the trip).
  [[nodiscard]] channel::CabinState cabin_state_at(double u) const;

  [[nodiscard]] double duration() const noexcept;

 private:
  const ScenarioConfig& config_;
  geom::Vec3 head_position_;
  motion::SweepTrajectory sweep_;
};

/// Builds the channel model for a scenario: scene for the configured
/// layout + the driver's scattering parameters, with optional static-
/// reflector drift (run-time cabins differ slightly from profiling-time
/// cabins after long intervals, Sec. 5.2.4).
[[nodiscard]] channel::ChannelModel make_channel(const ScenarioConfig& config,
                                                 double cabin_drift_m,
                                                 util::Rng& rng);

}  // namespace vihot::sim
