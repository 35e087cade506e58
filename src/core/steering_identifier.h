// Driver-steering identifier (Sec. 3.6.2).
//
// On a CSI disturbance the identifier asks the phone IMU whether the car
// body is turning. If it is, the disturbance is attributed to the hands on
// the steering wheel, the CSI-based estimate is distrusted, and the system
// falls back to the camera tracker (the phone faces the driver anyway).
// If the car is not turning, the disturbance is a genuine head turn and
// CSI tracking proceeds.
#pragma once

#include "imu/turn_detector.h"

namespace vihot::obs {
struct TrackerStats;
}  // namespace vihot::obs

namespace vihot::core {

/// Which estimator should drive the output right now.
enum class TrackingMode {
  kCsi,             ///< normal: CSI series matching
  kCameraFallback,  ///< steering interference: camera-based tracking
};

/// Streaming arbiter between CSI tracking and the camera fallback.
class SteeringIdentifier {
 public:
  struct Config {
    bool enabled = true;
    imu::TurnDetector::Config detector{};
  };

  SteeringIdentifier();
  explicit SteeringIdentifier(const Config& config);

  /// Consumes one IMU sample.
  void push_imu(const imu::ImuSample& sample);

  /// Current verdict. When the identifier is disabled (ablation,
  /// Fig. 17b "w/o steering identifier"), this always reports kCsi.
  [[nodiscard]] TrackingMode mode() const noexcept;

  [[nodiscard]] bool car_turning() const noexcept {
    return detector_.is_turning();
  }

  /// Counts IMU samples the turn detector drops past its sample cap into
  /// stats->imu_window_capped (nullptr = off).
  void set_stats(obs::TrackerStats* stats) noexcept;

 private:
  Config config_;
  imu::TurnDetector detector_;
};

}  // namespace vihot::core
