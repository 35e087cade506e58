// Car-turn detector over IMU samples.
//
// Decides "is the car turning right now?" — the predicate ViHOT's steering
// identifier (Sec. 3.6.2) evaluates when a CSI disturbance arrives. A
// debounced threshold on the gyro yaw rate: MEMS noise and bias must not
// trip it, but an intersection turn (several deg/s of body yaw) must,
// quickly enough to beat the CSI matcher's window.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "imu/imu.h"

namespace vihot::obs {
class Counter;
}  // namespace vihot::obs

namespace vihot::imu {

/// Highest IMU feed rate (samples/s) the detector's window is sized for:
/// 10x a 200 Hz phone IMU (the simulator feeds 100 Hz), so no legitimate
/// feed reaches the cap derived from it. A hostile feeder (equal or
/// nanosecond-spaced timestamps) defeats the time-based trim; the cap
/// bounds its memory and per-sample median work instead.
inline constexpr double kMaxImuFeedRateHz = 2000.0;

/// Streaming detector; feed samples in time order, query at any point.
class TurnDetector {
 public:
  struct Config {
    /// Yaw-rate magnitude that counts as "turning" (rad/s). An
    /// intersection turn at 6 m/s is ~0.2-0.5 rad/s; gyro noise is ~0.006.
    double yaw_rate_threshold = 0.05;
    /// The yaw rate is smoothed over this window before thresholding.
    double smooth_window_s = 0.15;
    /// Hysteresis: once turning, the state holds until the smoothed rate
    /// falls below threshold * release_ratio.
    double release_ratio = 0.6;
    /// Hold the "turning" verdict this long after release — the wheel
    /// unwinding still moves the hands (and the CSI) slightly after the
    /// body yaw decays.
    double hold_after_s = 0.4;
  };

  TurnDetector();
  explicit TurnDetector(const Config& config);

  /// Consumes one IMU sample; returns the current verdict.
  bool update(const ImuSample& sample);

  /// Latest verdict without consuming a new sample.
  [[nodiscard]] bool is_turning() const noexcept { return turning_latched_; }

  /// Smoothed yaw-rate magnitude (diagnostic).
  [[nodiscard]] double smoothed_yaw_rate() const noexcept {
    return smoothed_;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Samples in the smoothing window (at most window_cap()).
  [[nodiscard]] std::size_t window_size() const noexcept {
    return window_.size();
  }

  /// The window's sample cap: its span at kMaxImuFeedRateHz, the span
  /// clamped to [0, 60] s so an unvalidated config still gets a finite
  /// cap.
  [[nodiscard]] std::size_t window_cap() const noexcept { return cap_; }

  /// Counts samples dropped past the sample cap (nullptr = off).
  void set_capped_counter(obs::Counter* counter) noexcept {
    capped_ = counter;
  }

 private:
  Config config_;
  std::size_t cap_;
  obs::Counter* capped_ = nullptr;  ///< not owned; may be nullptr
  std::deque<ImuSample> window_;
  std::vector<double> rates_;  ///< median scratch, reused across samples
  double smoothed_ = 0.0;
  bool turning_raw_ = false;
  bool turning_latched_ = false;
  double last_turning_t_ = -1e18;
};

}  // namespace vihot::imu
