// AVX2 implementations of the dispatched kernels (dsp/simd.h).
//
// This translation unit is the ONLY one compiled with -mavx2 (see
// src/dsp/CMakeLists.txt), so AVX2 instructions cannot leak into code
// that runs before the runtime CPU probe. Every loop below replays the
// scalar contract's per-element operation sequence on 4-wide lanes —
// explicit vsubpd/vmulpd/vaddpd, never FMA — and finishes the remainder
// with the exact scalar helpers from simd_impl.h, so the output is
// bit-identical to scalar_kernels() on any input.
#include "dsp/simd.h"

#if VIHOT_HAVE_AVX2_TU

#include <immintrin.h>

#include "dsp/simd_impl.h"

namespace vihot::dsp::simd {

namespace {

using detail::kInf;

// std::min(a, b) selects b only when b < a; equal (and NaN) keep a.
// Compare+blend reproduces that operand selection exactly — including
// signed zeros, where vminpd's "return the second operand" rule would
// differ from std::min by a sign bit.
inline __m256d min_like_std(__m256d a, __m256d b) noexcept {
  const __m256d take_b = _mm256_cmp_pd(b, a, _CMP_LT_OQ);
  return _mm256_blendv_pd(a, b, take_b);
}

inline __m256d max_like_std(__m256d a, __m256d b) noexcept {
  const __m256d take_b = _mm256_cmp_pd(a, b, _CMP_LT_OQ);
  return _mm256_blendv_pd(a, b, take_b);
}

// Eight same-shape banded DPs in lockstep, one candidate per lane, as
// two interleaved vectors (lanes 0-3 and 4-7). The row-major loop of
// detail::dtw_banded_rowmajor, widened: DP cell (j, lane) lives at
// row[8 * j + lane], and the segments are transposed so column j of
// each vector is one aligned load. The two vectors' left-to-right
// min/add chains are independent, so one hides the other's latency.
// Each lane computes exactly dtw_cell's sub, mul, min(min(up, ul), left)
// and one rounded add, and tests its row minimum against the shared bar
// after every row. DP cells hold only non-negative values and +inf (no
// NaN, no signed zero), so vminpd matches std::min bit for bit.
void avx2_dtw_banded_batch(const double* a, std::size_t n,
                           const double* const* segs, std::size_t count,
                           std::size_t m, const std::size_t* j_lo,
                           const std::size_t* j_hi, double abandon_above,
                           const DtwBatchScratch& scratch,
                           double* out) noexcept {
  constexpr std::size_t kL = kDtwBatchLanes;
  static_assert(kL == 8, "two vectors of four lanes");
  // Lanes past `count` replay lane 0: finite inputs, discarded results.
  const double* s[kL];
  for (std::size_t l = 0; l < kL; ++l) s[l] = segs[l < count ? l : 0];

  // Transpose the segments into block[8 * j + lane], 4x4 at a time.
  double* blk = scratch.block;
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    for (std::size_t g = 0; g < kL; g += 4) {
      const __m256d r0 = _mm256_loadu_pd(s[g] + j);
      const __m256d r1 = _mm256_loadu_pd(s[g + 1] + j);
      const __m256d r2 = _mm256_loadu_pd(s[g + 2] + j);
      const __m256d r3 = _mm256_loadu_pd(s[g + 3] + j);
      const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
      const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
      const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
      const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
      double* o = blk + kL * j + g;
      _mm256_store_pd(o, _mm256_permute2f128_pd(t0, t2, 0x20));
      _mm256_store_pd(o + kL, _mm256_permute2f128_pd(t1, t3, 0x20));
      _mm256_store_pd(o + 2 * kL, _mm256_permute2f128_pd(t0, t2, 0x31));
      _mm256_store_pd(o + 3 * kL, _mm256_permute2f128_pd(t1, t3, 0x31));
    }
  }
  for (; j < m; ++j) {
    for (std::size_t l = 0; l < kL; ++l) blk[kL * j + l] = s[l][j];
  }

  const __m256d inf = _mm256_set1_pd(kInf);
  const __m256d bar = _mm256_set1_pd(abandon_above);
  double* prev = scratch.rows;
  double* curr = scratch.rows + kL * scratch.stride;
  _mm256_store_pd(prev, _mm256_setzero_pd());  // dp[0][0], every lane
  _mm256_store_pd(prev + 4, _mm256_setzero_pd());

  // Idle lanes start dead so they never hold the batch open.
  const __m256d live = _mm256_set1_pd(static_cast<double>(count));
  __m256d dead0 = _mm256_cmp_pd(_mm256_set_pd(3.0, 2.0, 1.0, 0.0), live,
                                _CMP_GE_OQ);
  __m256d dead1 = _mm256_cmp_pd(_mm256_set_pd(7.0, 6.0, 5.0, 4.0), live,
                                _CMP_GE_OQ);

  // Column spans as in the scalar kernel: what `curr` holds from two
  // rows ago, and what `prev` holds from the previous row.
  std::size_t stale_lo = 1, stale_hi = 0;
  std::size_t written_lo = 0, written_hi = 0;
  bool all_dead = false;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t lo = j_lo[i];
    const std::size_t hi = j_hi[i];
    for (std::size_t c = stale_lo; c <= stale_hi; ++c) {
      _mm256_store_pd(curr + kL * c, inf);
      _mm256_store_pd(curr + kL * c + 4, inf);
    }
    const __m256d av = _mm256_set1_pd(a[i - 1]);
    __m256d left0 = _mm256_load_pd(curr + kL * (lo - 1));  // +inf
    __m256d left1 = _mm256_load_pd(curr + kL * (lo - 1) + 4);
    __m256d row_min0 = inf;
    __m256d row_min1 = inf;
    for (std::size_t c = lo; c <= hi; ++c) {
      const double* up = prev + kL * c;
      const double* ul = prev + kL * (c - 1);
      const double* bj = blk + kL * (c - 1);
      const __m256d d0 = _mm256_sub_pd(av, _mm256_load_pd(bj));
      const __m256d d1 = _mm256_sub_pd(av, _mm256_load_pd(bj + 4));
      const __m256d best0 = _mm256_min_pd(
          _mm256_min_pd(_mm256_load_pd(up), _mm256_load_pd(ul)), left0);
      const __m256d best1 = _mm256_min_pd(
          _mm256_min_pd(_mm256_load_pd(up + 4), _mm256_load_pd(ul + 4)),
          left1);
      const __m256d v0 = _mm256_add_pd(best0, _mm256_mul_pd(d0, d0));
      const __m256d v1 = _mm256_add_pd(best1, _mm256_mul_pd(d1, d1));
      _mm256_store_pd(curr + kL * c, v0);
      _mm256_store_pd(curr + kL * c + 4, v1);
      left0 = v0;
      left1 = v1;
      row_min0 = _mm256_min_pd(row_min0, v0);
      row_min1 = _mm256_min_pd(row_min1, v1);
    }
    std::swap(prev, curr);
    stale_lo = written_lo;
    stale_hi = written_hi;
    written_lo = lo;
    written_hi = hi;
    dead0 = _mm256_or_pd(dead0, _mm256_cmp_pd(row_min0, bar, _CMP_GT_OQ));
    dead1 = _mm256_or_pd(dead1, _mm256_cmp_pd(row_min1, bar, _CMP_GT_OQ));
    if ((_mm256_movemask_pd(dead0) & _mm256_movemask_pd(dead1)) == 0xF) {
      all_dead = true;
      break;
    }
  }
  alignas(32) double last[kL];
  if (all_dead) {
    _mm256_store_pd(last, inf);
    _mm256_store_pd(last + 4, inf);
  } else {
    const double* final_row = prev + kL * m;
    _mm256_store_pd(last,
                    _mm256_blendv_pd(_mm256_load_pd(final_row), inf, dead0));
    _mm256_store_pd(last + 4, _mm256_blendv_pd(_mm256_load_pd(final_row + 4),
                                               inf, dead1));
  }
  for (std::size_t l = 0; l < count; ++l) out[l] = last[l];

  // Restore the all-infinity invariant: the last two written spans plus
  // the dp[0][0] seed.
  for (std::size_t c = written_lo; c <= written_hi; ++c) {
    _mm256_store_pd(prev + kL * c, inf);
    _mm256_store_pd(prev + kL * c + 4, inf);
  }
  for (std::size_t c = stale_lo; c <= stale_hi; ++c) {
    _mm256_store_pd(curr + kL * c, inf);
    _mm256_store_pd(curr + kL * c + 4, inf);
  }
  _mm256_store_pd(scratch.rows, inf);
  _mm256_store_pd(scratch.rows + 4, inf);
}

double avx2_band_lower_bound(const double* seg, const double* lo,
                             const double* hi, std::size_t n,
                             double stop_above) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  double acc = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d v = _mm256_loadu_pd(seg + j);
    const __m256d lov = _mm256_loadu_pd(lo + j);
    const __m256d hiv = _mm256_loadu_pd(hi + j);
    // d1 = max(lo - v, +0), d2 = max(v - hi, +0): vmaxpd returns the
    // second operand on equality, so a -0.0 difference clamps to +0.0 —
    // matching the scalar contract's `x > 0 ? x : 0.0` exactly.
    const __m256d d1 = _mm256_max_pd(_mm256_sub_pd(lov, v), zero);
    const __m256d d2 = _mm256_max_pd(_mm256_sub_pd(v, hiv), zero);
    const __m256d c =
        _mm256_add_pd(_mm256_mul_pd(d1, d1), _mm256_mul_pd(d2, d2));
    // Accumulate the block in ascending-j scan order (the scalar
    // contract): extract lanes, four sequential adds.
    alignas(32) double lane[4];
    _mm256_store_pd(lane, c);
    acc += lane[0];
    acc += lane[1];
    acc += lane[2];
    acc += lane[3];
    if (acc > stop_above) return acc;
  }
  while (j < n) {
    const std::size_t block_end = n;
    for (; j < block_end; ++j) {
      acc += detail::band_cost_cell(seg[j], lo[j], hi[j]);
    }
    if (acc > stop_above) return acc;
  }
  return acc;
}

void avx2_envelope_update(double v, double* lo, double* hi, std::size_t j_lo,
                          std::size_t j_hi) noexcept {
  const __m256d vv = _mm256_set1_pd(v);
  std::size_t j = j_lo;
  for (; j + 4 <= j_hi + 1; j += 4) {
    _mm256_storeu_pd(lo + j, min_like_std(_mm256_loadu_pd(lo + j), vv));
    _mm256_storeu_pd(hi + j, max_like_std(_mm256_loadu_pd(hi + j), vv));
  }
  for (; j <= j_hi; ++j) {
    lo[j] = std::min(lo[j], v);
    hi[j] = std::max(hi[j], v);
  }
}

void avx2_subtract_offset(const double* src, double shift, double* dst,
                          std::size_t n) noexcept {
  const __m256d vshift = _mm256_set1_pd(shift);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i,
                     _mm256_sub_pd(_mm256_loadu_pd(src + i), vshift));
  }
  for (; i < n; ++i) {
    dst[i] = src[i] - shift;
  }
}

void avx2_conj_products(const std::complex<double>* a,
                        const std::complex<double>* b, double* re,
                        double* im, std::size_t n) noexcept {
  const auto* pa = reinterpret_cast<const double*>(a);
  const auto* pb = reinterpret_cast<const double*>(b);
  std::size_t f = 0;
  for (; f + 4 <= n; f += 4) {
    // Two registers of interleaved (re, im) pairs -> unpack into
    // per-lane re/im vectors in (0, 2, 1, 3) order; the order is
    // consistent across all element-wise ops, and a final permute
    // restores memory order before the store.
    const __m256d a01 = _mm256_loadu_pd(pa + 2 * f);
    const __m256d a23 = _mm256_loadu_pd(pa + 2 * f + 4);
    const __m256d b01 = _mm256_loadu_pd(pb + 2 * f);
    const __m256d b23 = _mm256_loadu_pd(pb + 2 * f + 4);
    const __m256d ar = _mm256_unpacklo_pd(a01, a23);
    const __m256d aim = _mm256_unpackhi_pd(a01, a23);
    const __m256d br = _mm256_unpacklo_pd(b01, b23);
    const __m256d bim = _mm256_unpackhi_pd(b01, b23);
    const __m256d vre =
        _mm256_add_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(aim, bim));
    const __m256d vim =
        _mm256_sub_pd(_mm256_mul_pd(aim, br), _mm256_mul_pd(ar, bim));
    _mm256_storeu_pd(re + f, _mm256_permute4x64_pd(vre, 0b11011000));
    _mm256_storeu_pd(im + f, _mm256_permute4x64_pd(vim, 0b11011000));
  }
  for (; f < n; ++f) {
    const double ar = a[f].real();
    const double ai = a[f].imag();
    const double br = b[f].real();
    const double bi = b[f].imag();
    re[f] = ar * br + ai * bi;
    im[f] = ai * br - ar * bi;
  }
}

constexpr KernelTable kAvx2Table{
    Level::kAvx2,         avx2_dtw_banded_batch, avx2_band_lower_bound,
    avx2_envelope_update, avx2_subtract_offset,  avx2_conj_products,
};

}  // namespace

const KernelTable* avx2_kernels() noexcept { return &kAvx2Table; }

}  // namespace vihot::dsp::simd

#endif  // VIHOT_HAVE_AVX2_TU
