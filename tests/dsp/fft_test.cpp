#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "util/angle.h"
#include "util/rng.h"

namespace vihot::dsp {
namespace {

TEST(FftTest, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(96));
}

TEST(FftTest, DeltaTransformsToFlat) {
  std::vector<std::complex<double>> x(16, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  fft_in_place(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, SinglToneLandsInItsBin) {
  const std::size_t n = 64;
  std::vector<std::complex<double>> x(n);
  const int tone = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = util::kTwoPi * tone * static_cast<double>(i) /
                      static_cast<double>(n);
    x[i] = std::polar(1.0, ph);
  }
  fft_in_place(x);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = (k == tone) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[k]), expected, 1e-9) << "bin " << k;
  }
}

TEST(FftTest, RoundTrip) {
  util::Rng rng(5);
  std::vector<std::complex<double>> x(128);
  for (auto& v : x) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  std::vector<std::complex<double>> y = x;
  fft_in_place(y);
  ifft_in_place(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(FftTest, ParsevalHolds) {
  util::Rng rng(7);
  std::vector<std::complex<double>> x(64);
  double e_time = 0.0;
  for (auto& v : x) {
    v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    e_time += std::norm(v);
  }
  fft_in_place(x);
  double e_freq = 0.0;
  for (const auto& v : x) e_freq += std::norm(v);
  EXPECT_NEAR(e_freq / 64.0, e_time, 1e-9);
}

TEST(FftTest, LinearityOfFft) {
  util::Rng rng(9);
  std::vector<std::complex<double>> a(32);
  std::vector<std::complex<double>> b(32);
  for (std::size_t i = 0; i < 32; ++i) {
    a[i] = {rng.normal(0.0, 1.0), 0.0};
    b[i] = {0.0, rng.normal(0.0, 1.0)};
  }
  std::vector<std::complex<double>> sum(32);
  for (std::size_t i = 0; i < 32; ++i) sum[i] = 2.0 * a[i] + b[i];
  fft_in_place(a);
  fft_in_place(b);
  fft_in_place(sum);
  for (std::size_t k = 0; k < 32; ++k) {
    EXPECT_NEAR(std::abs(sum[k] - (2.0 * a[k] + b[k])), 0.0, 1e-10);
  }
}

}  // namespace
}  // namespace vihot::dsp
