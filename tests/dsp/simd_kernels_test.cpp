// Bit-identity gate for the dispatched SIMD kernels (dsp/simd.h).
//
// Every dispatched kernel is specified as an exact sequence of rounded
// floating-point operations; the AVX2 table must reproduce the scalar
// table's output bit-for-bit (memcmp, not tolerance). On hardware
// without AVX2 the lane-level comparisons skip themselves and the
// scalar contract still runs through the dispatch plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <vector>

#include "core/kalman_sanitizer.h"
#include "core/sanitizer.h"
#include "dsp/dtw.h"
#include "dsp/series_match.h"
#include "dsp/simd.h"
#include "dsp/simd_impl.h"
#include "tests/dsp/match_option_matrix.h"
#include "tests/same_bits.h"
#include "wifi/csi.h"

namespace vihot::dsp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> random_values(std::size_t n, std::uint32_t seed,
                                  double lo = -3.0, double hi = 3.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> xs(n);
  for (double& v : xs) v = dist(rng);
  return xs;
}

bool memcmp_equal(const double* a, const double* b, std::size_t n) {
  if (n == 0) return true;  // empty vectors may hand memcmp null data()
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

class SimdKernelsAvx2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::avx2_supported()) {
      GTEST_SKIP() << "AVX2 not available on this host/build";
    }
    avx2_ = simd::avx2_kernels();
    ASSERT_NE(avx2_, nullptr);
  }
  const simd::KernelTable* avx2_ = nullptr;
  const simd::KernelTable& scalar_ = simd::scalar_kernels();
};

// The matcher's batched entry: both tables' dtw_banded_batch must agree
// by memcmp, and every live lane must equal a lone row-major DTW of its
// segment under the batch's bar, for every shape, band, bar regime and
// live-lane count (1 to kDtwBatchLanes, so both AVX2 vectors run
// partial). The shapes are an n 2-48 x m 2-64 sweep plus edge shapes: a
// length-1 side, and long problems whose narrowest band is a few cells.
// One scratch serves every call of both tables, so a kernel that leaves
// a dirty row cell behind corrupts a later batch.
TEST_F(SimdKernelsAvx2Test, DtwLanesMatchScalarBitwise) {
  constexpr std::size_t kLanes = simd::kDtwBatchLanes;
  constexpr double kUntouched = -7.0;
  DtwBatchBuffers shared;
  // Rows for the lone row-major runs; the kernel leaves them +infinity.
  std::vector<double> lone_prev;
  std::vector<double> lone_curr;
  std::vector<std::size_t> j_lo;
  std::vector<std::size_t> j_hi;
  std::uint32_t seed = 9000;
  const auto check = [&](std::size_t n, std::size_t m, double frac) {
    const auto a = random_values(n, ++seed);
    std::vector<double> segs[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      segs[l] = random_values(m, seed * 8 + static_cast<std::uint32_t>(l));
    }
    // Lane 0 sits far above the query, so its first row already exceeds
    // any bar the other lanes survive.
    std::vector<double> far = segs[0];
    for (double& v : far) v += 1000.0;
    DtwOptions options;
    options.band_fraction = frac;
    j_lo.assign(n + 1, 0);
    j_hi.assign(n + 1, 0);
    dtw_band_geometry(n, m, dtw_band_cells(options, n, m), j_lo.data(),
                      j_hi.data());
    if (lone_prev.size() < m + 1) {
      lone_prev.resize(m + 1, kInf);
      lone_curr.resize(m + 1, kInf);
    }
    shared.reset(n, m);
    const auto solo = [&](const std::vector<double>& seg, double bar) {
      return simd::detail::dtw_banded_rowmajor(
          a.data(), n, seg.data(), m, j_lo.data(), j_hi.data(), bar,
          lone_prev.data(), lone_curr.data());
    };
    double open[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) open[l] = solo(segs[l], kInf);
    struct Regime {
      const char* name;
      bool far_lane0;
      double bar;
    };
    const Regime regimes[] = {
        {"inf", false, kInf},
        // Lane 2 finishes exactly at the bar; lanes whose distance
        // exceeds it die part-way.
        {"finite", false, open[2]},
        {"lane0_dead_row1", true, *std::max_element(open + 1, open + kLanes)},
        {"all_dead", false, 1e-9},
    };
    for (const Regime& r : regimes) {
      const double* ptrs[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) ptrs[l] = segs[l].data();
      if (r.far_lane0) ptrs[0] = far.data();
      double want[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        want[l] = solo(l == 0 && r.far_lane0 ? far : segs[l], r.bar);
      }
      if (r.far_lane0) {
        ASSERT_EQ(want[0], kInf);
        ASSERT_TRUE(std::isfinite(want[1]));
      }
      for (std::size_t count = 1; count <= kLanes; ++count) {
        double got_scalar[kLanes];
        double got_avx2[kLanes];
        std::fill(std::begin(got_scalar), std::end(got_scalar), kUntouched);
        std::fill(std::begin(got_avx2), std::end(got_avx2), kUntouched);
        scalar_.dtw_banded_batch(a.data(), n, ptrs, count, m, j_lo.data(),
                                 j_hi.data(), r.bar, shared.scratch(),
                                 got_scalar);
        avx2_->dtw_banded_batch(a.data(), n, ptrs, count, m, j_lo.data(),
                                j_hi.data(), r.bar, shared.scratch(),
                                got_avx2);
        ASSERT_TRUE(memcmp_equal(got_scalar, got_avx2, kLanes))
            << "n=" << n << " m=" << m << " frac=" << frac
            << " bar=" << r.name << " count=" << count;
        for (std::size_t l = 0; l < kLanes; ++l) {
          const double expect = l < count ? want[l] : kUntouched;
          ASSERT_PRED_FORMAT2(SameBits, got_avx2[l], expect)
              << "n=" << n << " m=" << m << " frac=" << frac
              << " bar=" << r.name << " count=" << count << " lane=" << l;
        }
      }
    }
  };
  for (std::size_t n = 2; n <= 48; ++n) {
    for (std::size_t m = 2; m <= 64; ++m) {
      for (const double frac : {0.1, 0.25, 1.0}) {
        check(n, m, frac);
        if (HasFatalFailure()) return;
      }
    }
  }
  struct Shape {
    std::size_t n, m;
  };
  const Shape edges[] = {{1, 1}, {1, 9}, {9, 1}, {84, 84}, {128, 200}};
  for (const Shape& s : edges) {
    for (const double frac : {0.05, 0.1, 0.25, 1.0}) {
      check(s.n, s.m, frac);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(SimdKernelsAvx2Test, BandLowerBoundMatchesScalarBitwise) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{8},
                              std::size_t{17}, std::size_t{64}}) {
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
      const auto seg = random_values(n, seed);
      auto lo = random_values(n, seed + 10, -2.0, 0.0);
      auto hi = random_values(n, seed + 20, 0.0, 2.0);
      if (n >= 4) {
        // An unreachable column (lo = +inf, hi = -inf) must force an
        // infinite bound through both paths.
        if (seed == 5) {
          lo[n / 2] = kInf;
          hi[n / 2] = -kInf;
        }
      }
      for (const double stop : {kInf, 2.0, 0.25, 0.0}) {
        const double rs = scalar_.band_lower_bound(seg.data(), lo.data(),
                                                   hi.data(), n, stop);
        const double ra = avx2_->band_lower_bound(seg.data(), lo.data(),
                                                  hi.data(), n, stop);
        EXPECT_SAME_BITS(rs, ra)
            << "n=" << n << " seed=" << seed << " stop=" << stop;
      }
    }
  }
}

TEST_F(SimdKernelsAvx2Test, EnvelopeUpdateMatchesScalarIncludingSignedZero) {
  const std::size_t m = 19;
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    auto lo_s = random_values(m + 1, seed, -1.0, 1.0);
    auto hi_s = random_values(m + 1, seed + 5, -1.0, 1.0);
    // Signed-zero cells: vminpd/vmaxpd would pick the wrong operand
    // here; the cmp+blend kernels must keep std::min/std::max's choice.
    lo_s[3] = 0.0;
    lo_s[4] = -0.0;
    hi_s[3] = -0.0;
    hi_s[4] = 0.0;
    auto lo_a = lo_s;
    auto hi_a = hi_s;
    const double vs[] = {0.0, -0.0, 0.7, -1.5};
    struct Span {
      std::size_t lo, hi;
    };
    const Span spans[] = {{1, m}, {2, 6}, {3, 3}, {1, 3}, {5, 18}};
    for (const double v : vs) {
      for (const auto& s : spans) {
        scalar_.envelope_update(v, lo_s.data(), hi_s.data(), s.lo, s.hi);
        avx2_->envelope_update(v, lo_a.data(), hi_a.data(), s.lo, s.hi);
        EXPECT_TRUE(memcmp_equal(lo_s.data(), lo_a.data(), m + 1));
        EXPECT_TRUE(memcmp_equal(hi_s.data(), hi_a.data(), m + 1));
      }
    }
  }
}

TEST_F(SimdKernelsAvx2Test, SubtractOffsetMatchesScalarBitwise) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{7},
        std::size_t{32}, std::size_t{33}}) {
    const auto src = random_values(n, 42);
    for (const double shift : {0.0, -0.0, 0.321, -2.5}) {
      std::vector<double> dst_s(n, -9.0);
      std::vector<double> dst_a(n, -9.0);
      scalar_.subtract_offset(src.data(), shift, dst_s.data(), n);
      avx2_->subtract_offset(src.data(), shift, dst_a.data(), n);
      EXPECT_TRUE(memcmp_equal(dst_s.data(), dst_a.data(), n))
          << "n=" << n << " shift=" << shift;
    }
  }
}

TEST_F(SimdKernelsAvx2Test, ConjProductsMatchesScalarBitwise) {
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{5},
        std::size_t{30}, std::size_t{57}}) {
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
      const auto re_a = random_values(n, seed);
      const auto im_a = random_values(n, seed + 1);
      const auto re_b = random_values(n, seed + 2);
      const auto im_b = random_values(n, seed + 3);
      std::vector<std::complex<double>> a(n);
      std::vector<std::complex<double>> b(n);
      for (std::size_t f = 0; f < n; ++f) {
        a[f] = {re_a[f], im_a[f]};
        b[f] = {re_b[f], im_b[f]};
      }
      std::vector<double> pr_s(n), pi_s(n), pr_a(n), pi_a(n);
      scalar_.conj_products(a.data(), b.data(), pr_s.data(), pi_s.data(), n);
      avx2_->conj_products(a.data(), b.data(), pr_a.data(), pi_a.data(), n);
      EXPECT_TRUE(memcmp_equal(pr_s.data(), pr_a.data(), n));
      EXPECT_TRUE(memcmp_equal(pi_s.data(), pi_a.data(), n));
      // And the kernel contract matches the std::complex multiply the
      // sanitizers historically used, for these finite values.
      for (std::size_t f = 0; f < n; ++f) {
        const std::complex<double> d = a[f] * std::conj(b[f]);
        EXPECT_SAME_BITS(pr_s[f], d.real());
        EXPECT_SAME_BITS(pi_s[f], d.imag());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ScalarTableIsScalarLevel) {
  EXPECT_EQ(simd::scalar_kernels().level, simd::Level::kScalar);
  EXPECT_STREQ(simd::to_string(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::to_string(simd::Level::kAvx2), "avx2");
}

TEST(SimdDispatchTest, ForceKernelsOverridesActive) {
  {
    simd::ForcedKernels forced(simd::scalar_kernels());
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
    EXPECT_EQ(&simd::active(), &simd::scalar_kernels());
  }
  if (simd::avx2_supported()) {
    simd::ForcedKernels forced(*simd::avx2_kernels());
    EXPECT_EQ(simd::active_level(), simd::Level::kAvx2);
  }
}

TEST(SimdDispatchTest, Avx2SupportImpliesTablePresent) {
  if (simd::avx2_supported()) {
    ASSERT_NE(simd::avx2_kernels(), nullptr);
    EXPECT_EQ(simd::avx2_kernels()->level, simd::Level::kAvx2);
  }
}

// ---------------------------------------------------------------------------
// End-to-end forced-dispatch equivalence: the matcher and the sanitizers
// must return identical bits whichever table runs.
// ---------------------------------------------------------------------------

std::vector<double> smooth_series(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-0.2, 0.2);
  std::vector<double> xs(n);
  double v = 0.0;
  for (double& x : xs) {
    v += dist(rng);
    x = v + 0.4 * std::sin(static_cast<double>(&x - xs.data()) * 0.12);
  }
  return xs;
}

void expect_same_match(const SeriesMatch& a, const SeriesMatch& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.length, b.length);
  EXPECT_SAME_BITS(a.distance, b.distance);
  EXPECT_SAME_BITS(a.score, b.score);
  EXPECT_SAME_BITS(a.runner_up, b.runner_up);
  EXPECT_EQ(a.runner_up_start, b.runner_up_start);
  EXPECT_EQ(a.runner_up_length, b.runner_up_length);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].start, b.top[i].start);
    EXPECT_EQ(a.top[i].length, b.top[i].length);
    EXPECT_SAME_BITS(a.top[i].distance, b.top[i].distance);
  }
}

// The matcher-equivalence matrix (filters with non-contiguous batch
// survivors, biases, centering, DC shift) plus band extremes.
std::vector<NamedOptions> forced_dispatch_option_matrix() {
  std::vector<NamedOptions> matrix = option_matrix();
  SeriesMatchOptions narrow;  // narrow band + coarse stride
  narrow.dtw.band_fraction = 0.05;
  narrow.start_stride = 3;
  matrix.push_back({"narrow_band+stride_3", narrow});
  SeriesMatchOptions full;
  full.dtw.band_fraction = 1.0;
  full.start_stride = 2;
  matrix.push_back({"full_band", full});
  return matrix;
}

TEST(SimdForcedDispatchTest, MatcherBitIdenticalAcrossTables) {
  const auto reference = smooth_series(400, 11);
  const auto query = smooth_series(40, 12);
  for (const auto& [name, opt] : forced_dispatch_option_matrix()) {
    SCOPED_TRACE(name);
    SeriesMatch scalar_match;
    {
      simd::ForcedKernels forced(simd::scalar_kernels());
      scalar_match = find_best_match(query, reference, opt);
    }
    // Scalar dispatch must equal the naive reference scan.
    const SeriesMatch ref = find_best_match_reference(query, reference, opt);
    expect_same_match(scalar_match, ref);
    if (!simd::avx2_supported()) continue;
    SeriesMatch avx2_match;
    {
      simd::ForcedKernels forced(*simd::avx2_kernels());
      avx2_match = find_best_match(query, reference, opt);
    }
    expect_same_match(scalar_match, avx2_match);
    // Prune-funnel stats are part of the contract: dispatch must not
    // change which stage cut each candidate.
    EXPECT_EQ(scalar_match.scan.candidates, avx2_match.scan.candidates);
    EXPECT_EQ(scalar_match.scan.lb_endpoint_pruned,
              avx2_match.scan.lb_endpoint_pruned);
    EXPECT_EQ(scalar_match.scan.lb_band_pruned,
              avx2_match.scan.lb_band_pruned);
    EXPECT_EQ(scalar_match.scan.dtw_abandoned,
              avx2_match.scan.dtw_abandoned);
    EXPECT_EQ(scalar_match.scan.dtw_evaluated,
              avx2_match.scan.dtw_evaluated);
    EXPECT_EQ(scalar_match.scan.hits_filtered,
              avx2_match.scan.hits_filtered);
  }
}

wifi::CsiMeasurement random_frame(std::uint32_t seed, std::size_t nsc = 30) {
  wifi::CsiMeasurement m;
  m.t = 0.01 * static_cast<double>(seed);
  const auto re0 = random_values(nsc, seed);
  const auto im0 = random_values(nsc, seed + 1);
  const auto re1 = random_values(nsc, seed + 2);
  const auto im1 = random_values(nsc, seed + 3);
  m.h[0].resize(nsc);
  m.h[1].resize(nsc);
  for (std::size_t f = 0; f < nsc; ++f) {
    m.h[0][f] = {re0[f], im0[f]};
    m.h[1][f] = {re1[f], im1[f]};
  }
  return m;
}

TEST(SimdForcedDispatchTest, SanitizerPhaseBitIdenticalAcrossTables) {
  if (!simd::avx2_supported()) {
    GTEST_SKIP() << "AVX2 not available on this host/build";
  }
  const core::CsiSanitizer sanitizer;
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    const auto m = random_frame(seed);
    double scalar_phase = 0.0;
    double avx2_phase = 0.0;
    {
      simd::ForcedKernels forced(simd::scalar_kernels());
      scalar_phase = sanitizer.phase(m);
    }
    {
      simd::ForcedKernels forced(*simd::avx2_kernels());
      avx2_phase = sanitizer.phase(m);
    }
    EXPECT_SAME_BITS(scalar_phase, avx2_phase);
  }
}

TEST(SimdForcedDispatchTest, KalmanSanitizerBitIdenticalAcrossTables) {
  if (!simd::avx2_supported()) {
    GTEST_SKIP() << "AVX2 not available on this host/build";
  }
  const core::SanitizerConfig base;
  const core::KalmanSanitizerConfig cfg;
  core::KalmanPhaseSanitizer scalar_s(base, cfg);
  core::KalmanPhaseSanitizer avx2_s(base, cfg);
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    auto m = random_frame(seed);
    m.t = 0.005 * static_cast<double>(seed);  // steady feed, no coast reset
    double a = 0.0;
    double b = 0.0;
    {
      simd::ForcedKernels forced(simd::scalar_kernels());
      a = scalar_s.sanitize(m);
    }
    {
      simd::ForcedKernels forced(*simd::avx2_kernels());
      b = avx2_s.sanitize(m);
    }
    EXPECT_SAME_BITS(a, b) << "frame " << seed;
  }
}

// ---------------------------------------------------------------------------
// Property: the envelope bound never exceeds the raw DTW distance, under
// the exact band geometry the kernel uses.
// ---------------------------------------------------------------------------

TEST(BandLowerBoundProperty, NeverExceedsRawDtw) {
  const std::size_t shapes[][2] = {{1, 1},  {1, 9},   {9, 1},  {2, 2},
                                   {21, 34}, {34, 21}, {40, 40}};
  for (const double frac : {0.0, 0.05, 0.3, 1.0}) {
    DtwOptions opt;
    opt.band_fraction = frac;
    for (const auto& s : shapes) {
      for (std::uint32_t seed = 1; seed <= 6; ++seed) {
        const auto q = random_values(s[0], seed);
        auto seg = random_values(s[1], seed + 50);
        // Nonzero DC shift between the sides (the matcher's shifted
        // lane segments): the bound must hold for the values it sees.
        for (double& v : seg) v += 0.37;
        simd::AlignedVector lo;
        simd::AlignedVector hi;
        build_envelope(q, seg.size(), opt, lo, hi);
        const double lb = band_lower_bound(seg, lo, hi, kInf);
        const double d = dtw_distance(q, seg, opt);
        // kBarSlack-style allowance: bound and DTW accumulate in
        // different orders, so allow a few ulps of rounding skew.
        EXPECT_LE(lb, d * (1.0 + 1e-12) + 1e-12)
            << "frac=" << frac << " n=" << s[0] << " m=" << s[1]
            << " seed=" << seed;
      }
    }
  }
}

TEST(BandLowerBoundProperty, EarlyExitDecisionMatchesFullSum) {
  // The blocked early exit must never change the caller's `> stop`
  // decision relative to the mathematically-identical full sum.
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    const auto q = random_values(25, seed);
    const auto seg = random_values(30, seed + 5);
    DtwOptions opt;
    opt.band_fraction = 0.3;
    simd::AlignedVector lo;
    simd::AlignedVector hi;
    build_envelope(q, seg.size(), opt, lo, hi);
    const double full = band_lower_bound(seg, lo, hi, kInf);
    for (const double stop : {0.0, 0.1, 1.0, 10.0, full}) {
      const double early = band_lower_bound(seg, lo, hi, stop);
      EXPECT_EQ(early > stop, full > stop)
          << "seed=" << seed << " stop=" << stop;
      if (early <= stop) {
        // No exit taken: the exact in-order sum must be returned.
        EXPECT_SAME_BITS(early, full);
      }
    }
  }
}

}  // namespace
}  // namespace vihot::dsp
