// KalmanPhaseSanitizer: Kalman-filter CSI phase recovery (the kKalman
// sanitize backend).
//
// Follows "Kalman filter based MIMO CSI phase recovery for COTS WiFi
// devices" (PAPERS.md): instead of trusting each frame's Eq. 3
// antenna-difference phase directly, track a per-subcarrier phase state
// x_f with a scalar Kalman filter,
//
//   predict:  P_f += q * dt                (phase random walk)
//   update:   v = wrap_pi(z_f - x_f)       (wrapped innovation)
//             K = P_f / (P_f + r)
//             x_f = wrap_pi(x_f + K * v);  P_f *= (1 - K)
//
// where z_f is the same per-subcarrier difference CsiSanitizer uses
// (including the rx-null variant when configured). The filtered states
// are then combined with the same circular mean. An innovation gate
// rejects per-subcarrier outliers (interference spikes), and a feed gap
// longer than max_coast_s reinitializes the state — a phase random walk
// carries no information across a blind stretch.
//
// Deterministic: pure double arithmetic driven by frame timestamps, no
// RNG, no wall clock — replays bit-exactly.
#pragma once

#include <vector>

#include "core/sanitizer.h"
#include "dsp/simd.h"

namespace vihot::core {

/// Tuning of the per-subcarrier phase filter. Defaults assume the
/// simulator's frame rates (hundreds of Hz) and head-turn phase slews of
/// a few rad/s.
struct KalmanSanitizerConfig {
  /// Process noise: phase random-walk intensity, rad^2 per second. Large
  /// enough that the filter tracks a fast head turn within a few frames.
  double process_noise_rad2_s = 4.0;
  /// Per-subcarrier measurement noise, rad^2 (thermal phase jitter).
  double measurement_noise_rad2 = 0.02;
  /// State variance at (re)initialization, rad^2.
  double initial_variance_rad2 = 1.0;
  /// Innovation gate in standard deviations; a per-subcarrier innovation
  /// beyond gate_sigma * sqrt(P + r) is skipped (outlier). 0 disables.
  double gate_sigma = 4.0;
  /// A frame gap wider than this reinitializes the filter state.
  double max_coast_s = 0.5;
};

/// Per-session stateful sanitize backend; owns one scalar filter per
/// subcarrier.
class KalmanPhaseSanitizer final : public PhaseSanitizer {
 public:
  KalmanPhaseSanitizer(const SanitizerConfig& base,
                       const KalmanSanitizerConfig& config)
      : base_(base), config_(config) {}

  [[nodiscard]] double sanitize(const wifi::CsiMeasurement& m) override;
  void set_stats(obs::TrackerStats* stats) override { stats_ = stats; }
  [[nodiscard]] SanitizerBackend backend() const noexcept override {
    return SanitizerBackend::kKalman;
  }

  [[nodiscard]] const KalmanSanitizerConfig& config() const noexcept {
    return config_;
  }

 private:
  /// The per-subcarrier measurement (Eq. 3 difference or rx-null
  /// combination), matching CsiSanitizer's per-subcarrier terms.
  [[nodiscard]] double measurement(const wifi::CsiMeasurement& m,
                                   std::size_t f) const noexcept;

  /// Fills meas_[0..nsc) with measurement(m, f) for every subcarrier —
  /// the Eq. 3 path batches the conjugate products through the
  /// dispatched SIMD kernel (bit-identical values; see dsp/simd.h), the
  /// rx-null path stays per-subcarrier scalar.
  void fill_measurements(const wifi::CsiMeasurement& m, std::size_t nsc);

  SanitizerConfig base_;
  KalmanSanitizerConfig config_;
  obs::TrackerStats* stats_ = nullptr;  ///< not owned; nullptr = off

  std::vector<double> state_;     ///< filtered phase per subcarrier
  std::vector<double> variance_;  ///< P per subcarrier
  std::vector<double> meas_;      ///< per-frame measurement scratch
  dsp::simd::AlignedVector prod_re_;  ///< conj-product kernel scratch
  dsp::simd::AlignedVector prod_im_;  ///< conj-product kernel scratch
  double last_t_ = 0.0;
  bool initialized_ = false;
};

}  // namespace vihot::core
