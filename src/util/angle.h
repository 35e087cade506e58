// Angle helpers shared across the ViHOT stack.
//
// All internal computation uses radians; the paper reports head orientation
// in degrees, so conversion helpers are provided for the reporting layer.
// Head orientation follows the paper's convention (Sec. 2.3): 0 rad means
// the driver faces the front of the car, positive angles turn toward the
// passenger (right in a left-hand-drive car).
#pragma once

#include <cstddef>
#include <span>

namespace vihot::util {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;

/// Degrees -> radians.
[[nodiscard]] constexpr double deg_to_rad(double deg) noexcept {
  return deg * kPi / 180.0;
}

/// Radians -> degrees.
[[nodiscard]] constexpr double rad_to_deg(double rad) noexcept {
  return rad * 180.0 / kPi;
}

/// Wraps an angle into the principal interval (-pi, pi].
[[nodiscard]] double wrap_pi(double rad) noexcept;

/// Shortest signed angular difference `a - b`, wrapped into (-pi, pi].
[[nodiscard]] double angular_diff(double a, double b) noexcept;

/// Absolute angular distance between two angles, in [0, pi].
[[nodiscard]] double angular_dist(double a, double b) noexcept;

/// Circular mean of a set of angles (useful for averaging wrapped phases).
/// Returns a value in (-pi, pi]. An empty input returns 0.
[[nodiscard]] double circular_mean(std::span<const double> angles) noexcept;

}  // namespace vihot::util
