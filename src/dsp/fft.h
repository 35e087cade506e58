// Radix-2 FFT.
//
// Used by the symbol-level OFDM PHY (wifi/ofdm_phy.h) — the 64-point
// transform at the heart of 802.11n — and by the Doppler analysis bench
// that quantifies the paper's "small Doppler shift at 2.4 GHz" argument
// (Sec. 2.2).
#pragma once

#include <complex>
#include <span>

namespace vihot::dsp {

/// In-place iterative radix-2 decimation-in-time FFT.
/// Precondition: size is a power of two (asserted).
void fft_in_place(std::span<std::complex<double>> x);

/// In-place inverse FFT (includes the 1/N normalization).
void ifft_in_place(std::span<std::complex<double>> x);

/// True if n is a nonzero power of two.
[[nodiscard]] constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace vihot::dsp
