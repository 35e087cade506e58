#include "dsp/dtw.h"

#include <algorithm>
#include <cmath>

#include "dsp/simd_impl.h"

namespace vihot::dsp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

double dtw_distance(std::span<const double> a, std::span<const double> b,
                    const DtwOptions& options) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) return kInf;

  // Two DP rows that are all +infinity between calls (the kernel restores
  // every cell it writes), plus the band geometry. Growing only appends
  // +infinity cells, so steady-state reuse neither allocates nor refills.
  struct Scratch {
    std::vector<double> prev, curr;
    std::vector<std::size_t> j_lo, j_hi;
  };
  thread_local Scratch s;
  if (s.prev.size() < m + 1) {
    s.prev.resize(m + 1, kInf);
    s.curr.resize(m + 1, kInf);
  }
  if (s.j_lo.size() < n + 1) {
    s.j_lo.resize(n + 1);
    s.j_hi.resize(n + 1);
  }
  dtw_band_geometry(n, m, dtw_band_cells(options, n, m), s.j_lo.data(),
                    s.j_hi.data());
  return simd::detail::dtw_banded_rowmajor(a.data(), n, b.data(), m,
                                           s.j_lo.data(), s.j_hi.data(),
                                           options.abandon_above,
                                           s.prev.data(), s.curr.data());
}

double dtw_distance_normalized(std::span<const double> a,
                               std::span<const double> b,
                               const DtwOptions& options) {
  const double d = dtw_distance(a, b, options);
  if (d == kInf) return kInf;
  return d / static_cast<double>(a.size() + b.size());
}

double dtw_lower_bound(std::span<const double> a,
                       std::span<const double> b) noexcept {
  if (a.empty() || b.empty()) return kInf;
  return dtw_endpoint_bound(a.front(), a.back(), b.front(), b.back(),
                            a.size() == 1 && b.size() == 1);
}

}  // namespace vihot::dsp
