#include "core/tie_breaker.h"

#include <cmath>

#include "obs/sink.h"

namespace vihot::core {

bool TieBreaker::apply(OrientationEstimate& estimate,
                       double last_theta_rad) const {
  if (!estimate.valid || estimate.candidates.size() < 2) return false;
  const double bar = this->bar(estimate.match_distance);
  const OrientationEstimate::AltCandidate* pick = nullptr;
  double pick_dev = std::abs(estimate.theta_rad - last_theta_rad);
  for (const auto& c : estimate.candidates) {
    if (c.distance > bar) break;  // sorted ascending
    const double dev = std::abs(c.theta_rad - last_theta_rad);
    // The 0.1 rad margin keeps the pick decisive: a candidate merely
    // epsilon-closer must not flip the winner back and forth.
    if (dev + 0.1 < pick_dev) {
      pick = &c;
      pick_dev = dev;
    }
  }
  if (pick == nullptr) return false;
  if (stats_ != nullptr) stats_->tie_break_applied.inc();
  estimate.theta_rad = pick->theta_rad;
  estimate.match_start = pick->match_start;
  estimate.match_length = pick->match_length;
  estimate.speed_ratio = pick->speed_ratio;
  estimate.match_distance = pick->distance;
  return true;
}

}  // namespace vihot::core
