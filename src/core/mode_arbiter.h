// Pipeline stage 1: mode arbitration (Sec. 3.6.2).
//
// Decides which estimator may drive the output right now. The steering
// identifier (IMU-based) flags steering interference; while it does, CSI
// matching is pointless and the camera fallback takes over — but only a
// FRESH camera estimate counts (the camera tracker loses frames under
// motion blur, and a stale angle is worse than no angle).
#pragma once

#include <optional>

#include "camera/camera_tracker.h"
#include "core/steering_identifier.h"
#include "imu/imu.h"

namespace vihot::obs {
struct TrackerStats;
}

namespace vihot::core {

/// Arbitrates CSI tracking vs the camera fallback and owns the fallback's
/// input state (latest valid camera estimate).
class ModeArbiter {
 public:
  ModeArbiter(const SteeringIdentifier::Config& steering,
              double camera_staleness_s);

  /// Consumes one phone-IMU sample (drives the steering identifier).
  void push_imu(const imu::ImuSample& sample);

  /// Consumes one camera estimate; lost-track frames are dropped.
  void push_camera(const camera::CameraTracker::Estimate& estimate);

  /// Current verdict: CSI or camera fallback.
  [[nodiscard]] TrackingMode mode() const noexcept {
    return steering_.mode();
  }

  /// What the fallback can output at `t_now`.
  struct CameraDecision {
    bool valid = false;      ///< a fresh camera estimate exists
    double theta_rad = 0.0;  ///< its orientation (when valid)
  };

  /// The fallback output for `t_now`: the cached camera estimate, unless
  /// it is older than the configured staleness bound.
  [[nodiscard]] CameraDecision camera_output(double t_now) const noexcept;

  /// Optional decision counters (fallback transitions, stale fallbacks,
  /// IMU samples past the turn detector's cap).
  void set_stats(obs::TrackerStats* stats) noexcept {
    stats_ = stats;
    steering_.set_stats(stats);
  }

 private:
  SteeringIdentifier steering_;
  double camera_staleness_s_;
  std::optional<camera::CameraTracker::Estimate> last_camera_;
  obs::TrackerStats* stats_ = nullptr;
};

}  // namespace vihot::core
