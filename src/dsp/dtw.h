// Dynamic Time Warping.
//
// ViHOT matches the run-time CSI window against profile segments whose
// length is unknown because the head-turning speed differs between
// profiling and run-time (Sec. 3.4.4). DTW absorbs that speed mismatch.
// This implementation provides:
//   * full O(n*m) distance with a rolling two-row table,
//   * an optional Sakoe-Chiba band to bound the warp,
//   * early abandoning against a best-so-far threshold (the inner loop of
//     Algorithm 1 evaluates thousands of candidate segments; abandoning
//     hopeless ones keeps the matcher real-time),
//   * optional warp-path extraction for diagnostics.
//
// dtw_distance runs the scalar row-major kernel (dsp/simd_impl.h), the
// bit contract of the matcher's dispatched batch entry
// (simd::KernelTable::dtw_banded_batch), so it returns the same bits as
// the matcher's DTW whichever kernel table is active.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace vihot::dsp {

/// Options controlling a DTW evaluation.
struct DtwOptions {
  /// Sakoe-Chiba band half-width as a fraction of max(n, m); 1.0 disables
  /// the band (full warping freedom).
  double band_fraction = 1.0;

  /// Early-abandon threshold: if every cell of a DP row exceeds this value
  /// the evaluation returns infinity immediately. Infinity disables it.
  double abandon_above = std::numeric_limits<double>::infinity();
};

/// DTW distance between `a` and `b` with squared-difference local cost.
/// Returns +infinity when either input is empty, when the band makes the
/// end cell unreachable, or when the evaluation was abandoned. The DP
/// rows are thread_local scratch reused across calls, so repeated
/// evaluations allocate nothing once the rows have grown.
[[nodiscard]] double dtw_distance(std::span<const double> a,
                                  std::span<const double> b,
                                  const DtwOptions& options = {});

/// Sakoe-Chiba band half-width in cells that dtw_distance uses
/// for an (n, m) problem under `options` (the band is widened to at least
/// the |n - m| slope gap so the end cell stays reachable). Exposed so
/// lower-bound precomputations can mirror the kernel's exact geometry.
[[nodiscard]] std::size_t dtw_band_cells(const DtwOptions& options,
                                         std::size_t n,
                                         std::size_t m) noexcept;

/// Per-row Sakoe-Chiba columns of an (n, m) problem with half-width
/// `band` (dtw_band_cells): for i in [1, n], j_lo[i]..j_hi[i] (1-based,
/// inclusive) around the diagonal i * m / n. band >= 1 keeps every span
/// non-empty and both ends nondecreasing, the geometry the banded
/// kernels require. j_lo/j_hi need n + 1 cells; cell 0 is not written.
void dtw_band_geometry(std::size_t n, std::size_t m, std::size_t band,
                       std::size_t* j_lo, std::size_t* j_hi) noexcept;

/// DTW distance normalized by the warp-path-independent length (n + m),
/// which makes distances comparable across candidate segment lengths
/// (Algorithm 1 compares candidates of length 0.5W .. 2W).
[[nodiscard]] double dtw_distance_normalized(std::span<const double> a,
                                             std::span<const double> b,
                                             const DtwOptions& options = {});

/// LB_Kim-style endpoint bound from raw endpoint values: the first and
/// last elements of the two series must align in any warp path, so their
/// local costs lower-bound the total. `singleton` collapses the bound to
/// the single shared cell when BOTH series have length 1 (the endpoints
/// coincide and must not be double-counted). This is THE stage-1 bound of
/// the matcher cascade — series_match and dtw_lower_bound both call it,
/// so the bound math exists exactly once.
[[nodiscard]] inline double dtw_endpoint_bound(double a_front, double a_back,
                                               double b_front, double b_back,
                                               bool singleton) noexcept {
  const double df = a_front - b_front;
  const double db = a_back - b_back;
  if (singleton) return df * df;
  return df * df + db * db;
}

/// Cheap lower bound on the DTW distance (LB_Kim-style endpoint bound).
/// Never exceeds the true DTW distance; used to skip candidates whose
/// bound already beats the current best in the series matcher.
[[nodiscard]] double dtw_lower_bound(std::span<const double> a,
                                     std::span<const double> b) noexcept;

}  // namespace vihot::dsp
