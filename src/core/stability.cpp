#include "core/stability.h"

#include <algorithm>
#include <cmath>

#include "obs/sink.h"

namespace vihot::core {

std::size_t csi_history_cap(double span_s) noexcept {
  const double span = span_s > 0.0 ? std::min(span_s, 60.0) : 0.0;
  return static_cast<std::size_t>(std::ceil(span * kMaxCsiFeedRateHz)) + 1;
}

StablePhaseDetector::StablePhaseDetector()
    : StablePhaseDetector(Config{}) {}

StablePhaseDetector::StablePhaseDetector(const Config& config)
    : config_(config), max_samples_(csi_history_cap(config.window_s)) {}

bool StablePhaseDetector::update(double t, double phase) {
  window_.push_back({t, phase});
  while (!min_q_.empty() && min_q_.back().phase > phase) min_q_.pop_back();
  while (!max_q_.empty() && max_q_.back().phase < phase) max_q_.pop_back();
  min_q_.push_back({pushed_, phase});
  max_q_.push_back({pushed_, phase});
  ++pushed_;
  while (!window_.empty() && window_.front().t < t - config_.window_s) {
    window_.pop_front();
    ++evicted_;
  }
  if (window_.size() > max_samples_) {
    // Only a feed above kMaxCsiFeedRateHz gets here: one push, one pop.
    window_.pop_front();
    ++evicted_;
    if (stats_ != nullptr) stats_->csi_history_capped.inc();
  }
  while (!min_q_.empty() && min_q_.front().seq < evicted_) min_q_.pop_front();
  while (!max_q_.empty() && max_q_.front().seq < evicted_) max_q_.pop_front();
  if (window_.size() < config_.min_samples ||
      (window_.back().t - window_.front().t) < 0.9 * config_.window_s) {
    stable_ = false;
    return false;
  }
  // The deque fronts are the window's min and max. The mean is read only
  // while stable, so it is folded only on frames that pass.
  stable_ = (max_q_.front().phase - min_q_.front().phase) <=
            config_.max_spread_rad;
  if (stable_) {
    double sum = 0.0;
    for (const Entry& e : window_) sum += e.phase;
    mean_ = sum / static_cast<double>(window_.size());
  }
  return stable_;
}

}  // namespace vihot::core
