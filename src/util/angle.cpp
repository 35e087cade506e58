#include "util/angle.h"

#include <cmath>

namespace vihot::util {

double wrap_pi(double rad) noexcept {
  double w = std::fmod(rad + kPi, kTwoPi);
  if (w < 0.0) w += kTwoPi;
  const double out = w - kPi;
  // Keep the boundary on the +pi side: the interval is (-pi, pi].
  return out <= -kPi ? kPi : out;
}

double angular_diff(double a, double b) noexcept { return wrap_pi(a - b); }

double angular_dist(double a, double b) noexcept {
  return std::abs(angular_diff(a, b));
}

double circular_mean(std::span<const double> angles) noexcept {
  if (angles.empty()) return 0.0;
  double s = 0.0;
  double c = 0.0;
  for (const double a : angles) {
    s += std::sin(a);
    c += std::cos(a);
  }
  return std::atan2(s, c);
}

}  // namespace vihot::util
