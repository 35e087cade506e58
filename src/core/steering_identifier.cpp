#include "core/steering_identifier.h"

#include "obs/sink.h"

namespace vihot::core {

SteeringIdentifier::SteeringIdentifier()
    : SteeringIdentifier(Config{}) {}

SteeringIdentifier::SteeringIdentifier(const Config& config)
    : config_(config), detector_(config.detector) {}

void SteeringIdentifier::push_imu(const imu::ImuSample& sample) {
  detector_.update(sample);
}

void SteeringIdentifier::set_stats(obs::TrackerStats* stats) noexcept {
  detector_.set_capped_counter(stats != nullptr ? &stats->imu_window_capped
                                                : nullptr);
}

TrackingMode SteeringIdentifier::mode() const noexcept {
  if (config_.enabled && detector_.is_turning()) {
    return TrackingMode::kCameraFallback;
  }
  return TrackingMode::kCsi;
}

}  // namespace vihot::core
