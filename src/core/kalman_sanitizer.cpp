#include "core/kalman_sanitizer.h"

#include <cmath>
#include <complex>

#include "obs/sink.h"
#include "util/angle.h"

namespace vihot::core {

double KalmanPhaseSanitizer::measurement(const wifi::CsiMeasurement& m,
                                         std::size_t f) const noexcept {
  if (!base_.rx_null_ratio.empty()) {
    const std::complex<double> r =
        base_.rx_null_ratio[f < base_.rx_null_ratio.size()
                                ? f
                                : base_.rx_null_ratio.size() - 1];
    const std::complex<double> y = m.h[0][f] - r * m.h[1][f];
    return std::arg(y * std::conj(m.h[1][f]));
  }
  return std::arg(m.h[0][f] * std::conj(m.h[1][f]));
}

void KalmanPhaseSanitizer::fill_measurements(const wifi::CsiMeasurement& m,
                                             std::size_t nsc) {
  meas_.resize(nsc);
  if (!base_.rx_null_ratio.empty()) {
    // Per-subcarrier null ratio with index clamping — stays scalar.
    for (std::size_t f = 0; f < nsc; ++f) {
      meas_[f] = measurement(m, f);
    }
    return;
  }
  prod_re_.resize(nsc);
  prod_im_.resize(nsc);
  dsp::simd::active().conj_products(m.h[0].data(), m.h[1].data(),
                                    prod_re_.data(), prod_im_.data(), nsc);
  // std::arg(z) is atan2(imag, real); identical inputs, identical bits.
  for (std::size_t f = 0; f < nsc; ++f) {
    meas_[f] = std::atan2(prod_im_[f], prod_re_[f]);
  }
}

double KalmanPhaseSanitizer::sanitize(const wifi::CsiMeasurement& m) {
  const std::size_t nsc = m.num_subcarriers();
  if (nsc == 0) return 0.0;

  // Same degraded-frame policy as CsiSanitizer: without the antenna-1
  // reference there is no difference to filter — return the raw
  // antenna-0 circular mean, count it, and leave the filter state alone.
  const bool have_reference = m.h[1].size() >= nsc;
  if (!base_.antenna_difference || !have_reference) {
    if (base_.antenna_difference && stats_ != nullptr) {
      stats_->sanitizer_antenna_degraded.inc();
    }
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t f = 0; f < nsc; ++f) {
      acc += std::polar(1.0, std::arg(m.h[0][f]));
    }
    return std::arg(acc);
  }

  const double dt = m.t - last_t_;
  const bool restart = !initialized_ || state_.size() != nsc || dt < 0.0 ||
                       dt > config_.max_coast_s;
  fill_measurements(m, nsc);
  if (restart) {
    if (initialized_ && stats_ != nullptr) {
      stats_->kalman_state_resets.inc();
    }
    state_.assign(nsc, 0.0);
    variance_.assign(nsc, config_.initial_variance_rad2);
    for (std::size_t f = 0; f < nsc; ++f) {
      state_[f] = meas_[f];
    }
    initialized_ = true;
  } else {
    const double q = config_.process_noise_rad2_s * dt;
    const double r = config_.measurement_noise_rad2;
    for (std::size_t f = 0; f < nsc; ++f) {
      double p = variance_[f] + q;
      const double z = meas_[f];
      const double v = util::wrap_pi(z - state_[f]);
      const double s = p + r;
      if (config_.gate_sigma > 0.0 &&
          v * v > config_.gate_sigma * config_.gate_sigma * s) {
        // Outlier spike: coast this subcarrier (keep the grown P so a
        // persistent shift eventually passes the gate).
        variance_[f] = p;
        if (stats_ != nullptr) stats_->kalman_outliers_gated.inc();
        continue;
      }
      const double k = p / s;
      state_[f] = util::wrap_pi(state_[f] + k * v);
      variance_[f] = (1.0 - k) * p;
    }
  }
  last_t_ = m.t;
  if (stats_ != nullptr) stats_->backend_kalman_frames.inc();

  // Circular mean across the filtered per-subcarrier states, mirroring
  // CsiSanitizer's combine (a wrap boundary between subcarriers cannot
  // corrupt the mean).
  if (!base_.subcarrier_average) {
    const std::size_t f =
        base_.single_subcarrier < nsc ? base_.single_subcarrier : 0;
    return state_[f];
  }
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t f = 0; f < nsc; ++f) {
    acc += std::polar(1.0, state_[f]);
  }
  return std::arg(acc);
}

}  // namespace vihot::core
