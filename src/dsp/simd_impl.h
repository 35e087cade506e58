// Shared per-element bodies for the dispatched kernels (dsp/simd.h).
//
// The scalar table and the AVX2 table's remainder/tail loops both
// include this header, so "the scalar contract" exists in exactly one
// place: an AVX2 kernel that falls back to these helpers for its tail
// is bit-identical to the scalar kernel by construction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "dsp/simd.h"

namespace vihot::dsp::simd::detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One DTW DP cell: min(up, left, diag) + (ai - bj)^2. The min is exact
/// (no rounding — association and operand order are free), the add is
/// the single rounded operation, and `inf + finite == inf` covers
/// unreachable predecessors. The row-major kernel computes its cells
/// through this one helper, so the per-cell contract exists in exactly
/// one place; the AVX2 batch replays it lane by lane.
inline double dtw_cell(double ai, double bj, double up, double left,
                       double ul) noexcept {
  const double d = ai - bj;
  const double cost = d * d;
  const double best = std::min(std::min(up, ul), left);
  return best + cost;
}

/// Row-major banded DP over two rolling rows `prev` and `curr`, each of
/// at least m + 1 cells and all +infinity on entry. Each cell goes
/// through dtw_cell, fusing the loop-carried dp[i][j-1] dependency into
/// one pass. Span-tracked clearing keeps the per-row work O(band): only
/// the cells a row's previous occupant wrote are re-infinitied before
/// reuse, and both rows are all +infinity again on every exit path.
/// This is the scalar bit contract of KernelTable::dtw_banded_batch and
/// the kernel dsp::dtw_distance runs.
inline double dtw_banded_rowmajor(const double* a, std::size_t n,
                                  const double* b, std::size_t m,
                                  const std::size_t* j_lo,
                                  const std::size_t* j_hi,
                                  double abandon_above, double* prev,
                                  double* curr) noexcept {
  double* const seed = prev;  // dp[0][0]
  *seed = 0.0;  // all other boundary cells are already +inf

  // Span the buffer about to be written holds from two rows ago (must
  // be re-infinitied before the kernel writes), and the span the other
  // buffer holds from the previous row. Row 0's "span" is the seed cell.
  std::size_t stale_lo = 1, stale_hi = 0;      // curr is pristine
  std::size_t written_lo = 0, written_hi = 0;  // prev holds row 0's {0}

  double result = kInf;
  bool abandoned = false;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t lo = j_lo[i];
    const std::size_t hi = j_hi[i];
    if (stale_lo <= stale_hi) {
      std::fill(curr + stale_lo, curr + stale_hi + 1, kInf);
    }
    double row_min = kInf;
    double left = curr[lo - 1];  // +inf by the row invariant
    for (std::size_t j = lo; j <= hi; ++j) {
      const double v =
          dtw_cell(a[i - 1], b[j - 1], prev[j], left, prev[j - 1]);
      curr[j] = v;
      left = v;
      row_min = std::min(row_min, v);
    }
    std::swap(prev, curr);
    stale_lo = written_lo;
    stale_hi = written_hi;
    written_lo = lo;
    written_hi = hi;
    if (row_min > abandon_above) {
      abandoned = true;
      break;
    }
  }
  if (!abandoned) result = prev[m];

  // Restore the all-infinity invariant: the dirty cells are exactly the
  // last two written spans plus the dp[0][0] seed.
  std::fill(prev + written_lo, prev + written_hi + 1, kInf);
  if (stale_lo <= stale_hi) {
    std::fill(curr + stale_lo, curr + stale_hi + 1, kInf);
  }
  *seed = kInf;
  return result;
}

/// The batched entry's bit contract (KernelTable::dtw_banded_batch): the
/// row-major kernel once per live lane, in lane order, with the batch's
/// one bar. The first two strides of scratch.rows serve as its rows,
/// and each call leaves them all +infinity for the next.
inline void dtw_banded_batch_rowmajor(const double* a, std::size_t n,
                                      const double* const* segs,
                                      std::size_t count, std::size_t m,
                                      const std::size_t* j_lo,
                                      const std::size_t* j_hi,
                                      double abandon_above,
                                      const DtwBatchScratch& scratch,
                                      double* out) noexcept {
  for (std::size_t l = 0; l < count; ++l) {
    out[l] = dtw_banded_rowmajor(a, n, segs[l], m, j_lo, j_hi,
                                 abandon_above, scratch.rows,
                                 scratch.rows + scratch.stride);
  }
}

/// One element of the envelope bound: the cost of seg value v against
/// the interval [lo, hi]. Exactly one of the two clamped terms can be
/// positive (lo <= hi), and x + 0.0 == x for the non-negative x here,
/// so the sum equals the historical single-branch cost bit-for-bit.
inline double band_cost_cell(double v, double lo, double hi) noexcept {
  const double below = lo - v;
  const double above = v - hi;
  const double d1 = below > 0.0 ? below : 0.0;
  const double d2 = above > 0.0 ? above : 0.0;
  return d1 * d1 + d2 * d2;
}

}  // namespace vihot::dsp::simd::detail
