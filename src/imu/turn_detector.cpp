#include "imu/turn_detector.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace vihot::imu {

namespace {

std::size_t window_sample_cap(double span_s) noexcept {
  const double span = span_s > 0.0 ? std::min(span_s, 60.0) : 0.0;
  return static_cast<std::size_t>(std::ceil(span * kMaxImuFeedRateHz)) + 1;
}

}  // namespace

TurnDetector::TurnDetector() : TurnDetector(Config{}) {}

TurnDetector::TurnDetector(const Config& config)
    : config_(config), cap_(window_sample_cap(config.smooth_window_s)) {}

bool TurnDetector::update(const ImuSample& sample) {
  window_.push_back(sample);
  while (!window_.empty() &&
         window_.front().t < sample.t - config_.smooth_window_s) {
    window_.pop_front();
  }
  if (window_.size() > cap_) {
    // Only a feed above kMaxImuFeedRateHz gets here: one push, one pop.
    window_.pop_front();
    if (capped_ != nullptr) capped_->inc();
  }
  // Median over the window: robust to single-sample gyro glitches that
  // a mean would smear into a false turn.
  rates_.clear();
  for (const ImuSample& w : window_) rates_.push_back(w.gyro_yaw_rad_s);
  const auto mid =
      rates_.begin() + static_cast<std::ptrdiff_t>(rates_.size() / 2);
  std::nth_element(rates_.begin(), mid, rates_.end());
  smoothed_ = std::abs(*mid);

  if (turning_raw_) {
    if (smoothed_ < config_.yaw_rate_threshold * config_.release_ratio) {
      turning_raw_ = false;
    }
  } else if (smoothed_ > config_.yaw_rate_threshold) {
    turning_raw_ = true;
  }
  if (turning_raw_) last_turning_t_ = sample.t;
  turning_latched_ =
      turning_raw_ || (sample.t - last_turning_t_) < config_.hold_after_s;
  return turning_latched_;
}

}  // namespace vihot::imu
