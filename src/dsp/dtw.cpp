#include "dsp/dtw.h"

#include <algorithm>
#include <cmath>

namespace vihot::dsp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double local_cost(double x, double y) noexcept {
  const double d = x - y;
  return d * d;
}

}  // namespace

std::size_t dtw_band_cells(const DtwOptions& options, std::size_t n,
                           std::size_t m) noexcept {
  const double frac = std::clamp(options.band_fraction, 0.0, 1.0);
  const auto longest = static_cast<double>(std::max(n, m));
  // The band must at least cover the diagonal slope mismatch |n - m| or the
  // end cell is unreachable.
  const auto slope_gap =
      static_cast<std::size_t>(n > m ? n - m : m - n);
  const auto width = static_cast<std::size_t>(std::ceil(frac * longest));
  return std::max<std::size_t>(std::max(width, slope_gap), 1);
}

void dtw_band_geometry(std::size_t n, std::size_t m, std::size_t band,
                       std::size_t* j_lo, std::size_t* j_hi) noexcept {
  // j near the diagonal i * m / n, widened by the band. band >= 1 and
  // diag <= m guarantee a non-empty, nondecreasing span.
  for (std::size_t i = 1; i <= n; ++i) {
    const auto diag =
        static_cast<std::size_t>(static_cast<double>(i) *
                                 static_cast<double>(m) /
                                 static_cast<double>(n));
    j_lo[i] = (diag > band) ? diag - band : 1;
    j_hi[i] = std::min(m, diag + band);
  }
}

void DtwBuffers::reset(std::size_t n, std::size_t m) {
  const std::size_t cells = std::max(n, m) + 1;
  // Round the lane stride up to a full 4-double group so every lane
  // starts on a 32-byte boundary of the aligned block.
  const std::size_t stride = (cells + 3) & ~std::size_t{3};
  if (stride > stride_) {
    // Growing changes where lane boundaries fall inside the block, so a
    // full +infinity refill is required HERE — but only here. At steady
    // state the kernels' all-infinity invariant (simd.h) means nothing
    // needs refilling between calls; that is the banded-clearing fix.
    stride_ = stride;
    block_.assign(4 * stride_, kInf);
  }
  if (jlo_.size() < n + 1) {
    jlo_.resize(n + 1);
    jhi_.resize(n + 1);
  }
}

double dtw_distance_buffered(std::span<const double> a,
                             std::span<const double> b,
                             const DtwOptions& options,
                             DtwBuffers& buffers) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) return kInf;

  const std::size_t band = dtw_band_cells(options, n, m);
  buffers.reset(n, m);

  dtw_band_geometry(n, m, band, buffers.j_lo(), buffers.j_hi());
  return simd::active().dtw_banded(a.data(), n, b.data(), m, buffers.j_lo(),
                                   buffers.j_hi(), options.abandon_above,
                                   buffers.lanes());
}

double dtw_distance(std::span<const double> a, std::span<const double> b,
                    const DtwOptions& options) {
  thread_local DtwBuffers buffers;
  return dtw_distance_buffered(a, b, options, buffers);
}

double dtw_distance_normalized(std::span<const double> a,
                               std::span<const double> b,
                               const DtwOptions& options) {
  const double d = dtw_distance(a, b, options);
  if (d == kInf) return kInf;
  return d / static_cast<double>(a.size() + b.size());
}

DtwAlignment dtw_align(std::span<const double> a, std::span<const double> b,
                       const DtwOptions& options) {
  DtwAlignment out;
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) return out;

  const std::size_t band = dtw_band_cells(options, n, m);
  std::vector<std::vector<double>> dp(n + 1,
                                      std::vector<double>(m + 1, kInf));
  dp[0][0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    const auto diag =
        static_cast<std::size_t>(static_cast<double>(i) *
                                 static_cast<double>(m) /
                                 static_cast<double>(n));
    const std::size_t j_lo = (diag > band) ? diag - band : 1;
    const std::size_t j_hi = std::min(m, diag + band);
    double row_min = kInf;
    for (std::size_t j = std::max<std::size_t>(j_lo, 1); j <= j_hi; ++j) {
      const double best_prev =
          std::min({dp[i - 1][j], dp[i - 1][j - 1], dp[i][j - 1]});
      if (best_prev == kInf) continue;
      dp[i][j] = best_prev + local_cost(a[i - 1], b[j - 1]);
      row_min = std::min(row_min, dp[i][j]);
    }
    // Same early-abandon contract as dtw_distance: a row whose best cell
    // already exceeds the threshold cannot recover.
    if (row_min > options.abandon_above) return DtwAlignment{};
  }
  out.distance = dp[n][m];
  if (out.distance == kInf) return out;

  // Backtrack from (n, m) to (1, 1). Every finite cell has at least one
  // finite predecessor by construction, and the selection below never
  // picks an infinite one (a tie on kInf would need all three infinite),
  // so the walk stays inside the band and cannot underflow the indices.
  std::size_t i = n;
  std::size_t j = m;
  out.path.emplace_back(i - 1, j - 1);
  while (i > 1 || j > 1) {
    const double up = (i > 1) ? dp[i - 1][j] : kInf;
    const double left = (j > 1) ? dp[i][j - 1] : kInf;
    const double diag_v = (i > 1 && j > 1) ? dp[i - 1][j - 1] : kInf;
    if (diag_v == kInf && up == kInf && left == kInf) {
      // Band-border defect: no finite predecessor. Cannot happen for a
      // finite cell; fail closed instead of stepping into kInf.
      return DtwAlignment{};
    }
    if (diag_v <= up && diag_v <= left) {
      --i;
      --j;
    } else if (up <= left) {
      --i;
    } else {
      --j;
    }
    out.path.emplace_back(i - 1, j - 1);
  }
  std::reverse(out.path.begin(), out.path.end());
  return out;
}

double dtw_lower_bound(std::span<const double> a,
                       std::span<const double> b) noexcept {
  if (a.empty() || b.empty()) return kInf;
  return dtw_endpoint_bound(a.front(), a.back(), b.front(), b.back(),
                            a.size() == 1 && b.size() == 1);
}

}  // namespace vihot::dsp
