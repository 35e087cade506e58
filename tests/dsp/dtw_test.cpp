#include "dsp/dtw.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace vihot::dsp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> sine(int n, double period, double phase = 0.0) {
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) {
    xs.push_back(std::sin(2.0 * 3.14159265 * i / period + phase));
  }
  return xs;
}

TEST(DtwTest, IdenticalSeriesZeroDistance) {
  const auto a = sine(50, 20.0);
  EXPECT_DOUBLE_EQ(dtw_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(dtw_distance_normalized(a, a), 0.0);
}

TEST(DtwTest, EmptyInputIsInfinite) {
  const std::vector<double> a = {1.0, 2.0};
  EXPECT_EQ(dtw_distance(a, {}), kInf);
  EXPECT_EQ(dtw_distance({}, a), kInf);
}

TEST(DtwTest, SingleElementPairs) {
  const std::vector<double> a = {2.0};
  const std::vector<double> b = {5.0};
  EXPECT_DOUBLE_EQ(dtw_distance(a, b), 9.0);
}

TEST(DtwTest, AbsorbsTimeStretching) {
  // The same sine at double the sampling: DTW distance should be far
  // smaller than the Euclidean-style distance to a different signal.
  const auto slow = sine(80, 40.0);
  const auto fast = sine(40, 20.0);
  const auto other = sine(40, 7.0);
  EXPECT_LT(dtw_distance(fast, slow), dtw_distance(fast, other));
  EXPECT_LT(dtw_distance(fast, slow), 1.0);
}

TEST(DtwTest, SymmetricDistance) {
  const auto a = sine(30, 11.0);
  const auto b = sine(45, 17.0, 0.5);
  EXPECT_NEAR(dtw_distance(a, b), dtw_distance(b, a), 1e-9);
}

TEST(DtwTest, TriangleOffsetGrowsDistance) {
  const auto a = sine(40, 20.0);
  auto b = a;
  for (double& v : b) v += 0.5;
  auto c = a;
  for (double& v : c) v += 1.0;
  EXPECT_LT(dtw_distance(a, b), dtw_distance(a, c));
}

TEST(DtwTest, EarlyAbandonReturnsInfinity) {
  const auto a = sine(40, 20.0);
  auto b = a;
  for (double& v : b) v += 2.0;
  DtwOptions opt;
  opt.abandon_above = 1.0;  // true distance is 40 * 4 = 160
  EXPECT_EQ(dtw_distance(a, b, opt), kInf);
}

TEST(DtwTest, EarlyAbandonKeepsGoodMatches) {
  const auto a = sine(40, 20.0);
  DtwOptions opt;
  opt.abandon_above = 1.0;
  EXPECT_DOUBLE_EQ(dtw_distance(a, a, opt), 0.0);
}

TEST(DtwTest, BandRestrictsWarp) {
  // With a full band the warp absorbs the stretch; with a tiny band the
  // alignment is near-diagonal and the distance grows.
  const auto slow = sine(80, 40.0);
  const auto fast = sine(40, 20.0);
  DtwOptions narrow;
  narrow.band_fraction = 0.02;
  DtwOptions full;
  full.band_fraction = 1.0;
  EXPECT_GE(dtw_distance(fast, slow, narrow),
            dtw_distance(fast, slow, full));
}

TEST(DtwTest, BandAlwaysReachesEndCell) {
  // Even a zero-width band must cover the diagonal slope mismatch.
  const auto a = sine(10, 5.0);
  const auto b = sine(37, 5.0);
  DtwOptions opt;
  opt.band_fraction = 0.0;
  EXPECT_LT(dtw_distance(a, b, opt), kInf);
}

TEST(DtwTest, NormalizedDividesBySizes) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> b = {1.0, 1.0};
  const double raw = dtw_distance(a, b);
  EXPECT_DOUBLE_EQ(dtw_distance_normalized(a, b), raw / 4.0);
}

TEST(DtwLowerBoundTest, NeverExceedsTrueDistance) {
  const auto a = sine(30, 13.0);
  for (double period : {7.0, 11.0, 23.0}) {
    for (double phase : {0.0, 0.7, 2.0}) {
      const auto b = sine(40, period, phase);
      EXPECT_LE(dtw_lower_bound(a, b), dtw_distance(a, b) + 1e-12)
          << "period=" << period << " phase=" << phase;
    }
  }
}

TEST(DtwLowerBoundTest, EmptyIsInfinite) {
  EXPECT_EQ(dtw_lower_bound({}, std::vector<double>{1.0}), kInf);
}

// Property: distance to a shifted copy grows monotonically with shift.
class DtwShiftProperty : public ::testing::TestWithParam<double> {};

TEST_P(DtwShiftProperty, MonotoneInOffset) {
  const auto a = sine(30, 15.0);
  const double s = GetParam();
  auto near = a;
  auto far = a;
  for (double& v : near) v += s;
  for (double& v : far) v += s + 0.5;
  EXPECT_LE(dtw_distance(a, near), dtw_distance(a, far));
}

INSTANTIATE_TEST_SUITE_P(Offsets, DtwShiftProperty,
                         ::testing::Values(0.0, 0.1, 0.3, 0.8, 1.5));

std::vector<double> random_series(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> xs(n);
  for (double& v : xs) v = dist(rng);
  return xs;
}

// Textbook full-table DTW with no band and no abandoning: the ground
// truth the banded rolling-row kernel must reproduce when the band is
// disabled. Same local cost and same min-then-add per cell, so the
// floating-point results must agree exactly, not just approximately.
double full_dp_reference(const std::vector<double>& a,
                         const std::vector<double>& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<std::vector<double>> dp(n + 1,
                                      std::vector<double>(m + 1, kInf));
  dp[0][0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      const double best_prev =
          std::min({dp[i - 1][j], dp[i - 1][j - 1], dp[i][j - 1]});
      if (best_prev == kInf) continue;
      const double d = a[i - 1] - b[j - 1];
      dp[i][j] = best_prev + d * d;
    }
  }
  return dp[n][m];
}

// Property: with band_fraction = 1.0 the banded kernel IS full DTW.
TEST(DtwFullDpProperty, UnbandedKernelMatchesReference) {
  const std::size_t sizes[][2] = {{1, 1},  {1, 17},  {17, 1},  {2, 2},
                                  {5, 5},  {23, 40}, {40, 23}, {64, 64}};
  DtwOptions full;
  full.band_fraction = 1.0;
  for (const auto& s : sizes) {
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
      const auto a = random_series(s[0], seed);
      const auto b = random_series(s[1], seed + 100);
      EXPECT_EQ(dtw_distance(a, b, full), full_dp_reference(a, b))
          << "n=" << s[0] << " m=" << s[1] << " seed=" << seed;
    }
  }
}

// The pre-fix banded kernel: full-row std::fill per DP row, three-way
// min-then-add per cell. The span-clearing row-major kernel behind
// dtw_distance must reproduce it bit-for-bit — this is the regression
// gate for the "clear only written spans" fix.
double banded_reference(const std::vector<double>& a,
                        const std::vector<double>& b,
                        const DtwOptions& options) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) return kInf;
  const std::size_t band = dtw_band_cells(options, n, m);
  std::vector<double> prev(m + 1, kInf);
  std::vector<double> curr(m + 1, kInf);
  prev[0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(curr.begin(), curr.end(), kInf);
    const auto diag = static_cast<std::size_t>(
        static_cast<double>(i) * static_cast<double>(m) /
        static_cast<double>(n));
    const std::size_t j_lo = (diag > band) ? diag - band : 1;
    const std::size_t j_hi = std::min(m, diag + band);
    double row_min = kInf;
    for (std::size_t j = std::max<std::size_t>(j_lo, 1); j <= j_hi; ++j) {
      const double best_prev =
          std::min({prev[j], prev[j - 1], curr[j - 1]});
      if (best_prev == kInf) continue;
      const double d = a[i - 1] - b[j - 1];
      curr[j] = best_prev + d * d;
      row_min = std::min(row_min, curr[j]);
    }
    if (row_min > options.abandon_above) return kInf;
    std::swap(prev, curr);
  }
  return prev[m];
}

// Property: the span-clearing kernel matches the historical full-clear
// kernel exactly, across band widths, shapes, and dirty buffer reuse
// (shrinking m after a wider problem is what exposes stale cells).
// dtw_distance's thread_local rows are shared by every call below, so
// each case runs on the rows the previous one left behind.
TEST(DtwBandedClearProperty, SpanClearingMatchesFullClearReference) {
  const std::size_t sizes[][2] = {{1, 1},  {1, 17}, {17, 1},  {2, 2},
                                  {40, 8}, {8, 40}, {64, 64}, {80, 30}};
  for (const double frac : {0.0, 0.05, 0.3, 1.0}) {
    DtwOptions opt;
    opt.band_fraction = frac;
    for (const auto& s : sizes) {
      for (std::uint32_t seed = 1; seed <= 3; ++seed) {
        const auto a = random_series(s[0], seed);
        const auto b = random_series(s[1], seed + 100);
        EXPECT_EQ(dtw_distance(a, b, opt), banded_reference(a, b, opt))
            << "frac=" << frac << " n=" << s[0] << " m=" << s[1]
            << " seed=" << seed;
      }
    }
  }
}

// Abandoning mid-way leaves the shared rows dirty in a different pattern
// than a completed run; the next call on the same thread must still be
// exact.
TEST(DtwBandedClearProperty, AbandonedRunDoesNotPoisonBuffers) {
  const auto a = random_series(48, 3);
  auto far = a;
  for (double& v : far) v += 3.0;
  DtwOptions opt;
  opt.band_fraction = 0.1;
  opt.abandon_above = 1.0;
  EXPECT_EQ(dtw_distance(a, far, opt), kInf);
  DtwOptions open;
  open.band_fraction = 0.1;
  const auto b = random_series(32, 4);
  EXPECT_EQ(dtw_distance(a, b, open), banded_reference(a, b, open));
}

TEST(DtwTest, LengthOneAgainstLongerSumsAllCosts) {
  // A single-sample series must align with every sample of the other
  // side, so the distance is the plain sum of squared differences.
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {0.0, 2.0, 3.0};
  const double expected = 1.0 + 1.0 + 4.0;
  EXPECT_DOUBLE_EQ(dtw_distance(a, b), expected);
  EXPECT_DOUBLE_EQ(dtw_distance(b, a), expected);
  EXPECT_EQ(dtw_distance(a, b), full_dp_reference(a, b));
}

TEST(DtwTest, SlopeGapWidensZeroBand) {
  // n >> m: the requested band of 0 cells must be widened to the |n - m|
  // slope gap or the end cell is unreachable.
  const auto a = sine(120, 30.0);
  const auto b = sine(5, 30.0);
  DtwOptions opt;
  opt.band_fraction = 0.0;
  EXPECT_GE(dtw_band_cells(opt, a.size(), b.size()), a.size() - b.size());
  EXPECT_LT(dtw_distance(a, b, opt), kInf);
  EXPECT_LT(dtw_distance(b, a, opt), kInf);
}

}  // namespace
}  // namespace vihot::dsp
