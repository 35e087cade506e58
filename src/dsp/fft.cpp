#include "dsp/fft.h"

#include <cassert>
#include <cmath>

#include "util/angle.h"

namespace vihot::dsp {

namespace {

void transform(std::span<std::complex<double>> x, bool inverse) {
  const std::size_t n = x.size();
  assert(is_pow2(n));
  if (n < 2) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }

  // Butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 1.0 : -1.0) * util::kTwoPi /
                         static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = x[i + k];
        const std::complex<double> v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : x) v *= inv_n;
  }
}

}  // namespace

void fft_in_place(std::span<std::complex<double>> x) {
  transform(x, false);
}

void ifft_in_place(std::span<std::complex<double>> x) {
  transform(x, true);
}

}  // namespace vihot::dsp
