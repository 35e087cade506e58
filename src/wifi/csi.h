// CSI measurement record, as a commodity NIC reports it.
//
// Mirrors what the Intel 5300 CSI tool delivers per received frame: a
// timestamp plus the complex channel estimate for each RX antenna and
// grouped subcarrier — already polluted by the CFO/SFO phase offsets of
// Eq. (2). The tracker must not peek at anything the real tool would not
// report; everything downstream of this type is the paper's algorithm.
#pragma once

#include <array>
#include <cmath>
#include <complex>
#include <vector>

namespace vihot::wifi {

/// One frame's noisy CSI: h[antenna][subcarrier].
struct CsiMeasurement {
  double t = 0.0;  ///< receive timestamp, seconds
  std::array<std::vector<std::complex<double>>, 2> h;

  [[nodiscard]] std::size_t num_subcarriers() const noexcept {
    return h[0].size();
  }
  /// Raw measured phase of one subcarrier on one antenna (the
  /// \hat{phi}_f of Eq. 2).
  [[nodiscard]] double phase(std::size_t antenna,
                             std::size_t subcarrier) const noexcept {
    return std::arg(h[antenna][subcarrier]);
  }
  /// Amplitude |H| of one subcarrier on one antenna.
  [[nodiscard]] double amplitude(std::size_t antenna,
                                 std::size_t subcarrier) const noexcept {
    return std::abs(h[antenna][subcarrier]);
  }
  /// True iff the timestamp and every channel coefficient are finite
  /// (the feed guard of engine::finite_sample and ViHotTracker::push_csi).
  [[nodiscard]] bool all_finite() const noexcept {
    if (!std::isfinite(t)) return false;
    for (const auto& antenna : h) {
      for (const std::complex<double>& x : antenna) {
        if (!std::isfinite(x.real()) || !std::isfinite(x.imag())) return false;
      }
    }
    return true;
  }
};

}  // namespace vihot::wifi
