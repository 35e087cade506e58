// The driver's CSI profile (Sec. 3.3).
//
// P = {C_1, ..., C_i, ...}: one entry per profiled head position. Each C_i
// holds the time-aligned pair of series collected while the driver swept
// the head at that position — the sanitized CSI phase Phi*_c and the
// ground-truth orientation Theta*_c — plus the position fingerprint
// phi0_c(i): the stable phase observed while the driver faced forward (0
// deg) at that position, which Eq. (4) later matches against.
//
// All series are stored resampled on a uniform grid so the run-time
// matcher can slice candidate segments by index.
//
// Phases are stored RELATIVE to `reference_phase` (wrapped into
// (-pi, pi]): the inter-antenna phase difference has an arbitrary absolute
// level set by the static path geometry, and anchoring everything to one
// reference keeps every stored value far from the +-pi wrap boundary.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec3.h"
#include "util/time_series.h"

namespace vihot::core {

/// Smallest profile grid step (s), the decoders' bound next to their
/// sample caps (replay/vrlog.cpp). Queries are round(window_s / dt) + 1
/// samples, so a tiny dt is an unbounded allocation (or, near 1e-300, an
/// out-of-range cast). 1e-4 s is a 10 kHz grid: 50x finer than the
/// simulator's 200 Hz profiles (dt 0.005), above any CSI packet rate.
inline constexpr double kMinProfileDt = 1e-4;

/// C_i: the profile of one head position.
struct PositionProfile {
  std::size_t position_index = 0;

  /// phi0_c(i): stable phase at 0 deg orientation (relative, wrapped).
  double fingerprint_phase = 0.0;

  /// Phi*_c: sanitized relative CSI phase on a uniform grid.
  util::UniformSeries csi;
  /// Theta*_c: ground-truth orientation (rad) on the same grid.
  util::UniformSeries orientation;

  /// Where the head actually was (simulation ground truth; kept for
  /// diagnostics only — the tracker never reads it).
  geom::Vec3 true_position;
};

/// P: the complete per-driver profile.
struct CsiProfile {
  /// Grid rate of every stored series (the matcher resamples run-time
  /// windows to this same rate before DTW).
  double sample_rate_hz = 200.0;

  /// Phase anchor subtracted from every raw sanitized phase.
  double reference_phase = 0.0;

  std::vector<PositionProfile> positions;

  [[nodiscard]] bool empty() const noexcept { return positions.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return positions.size(); }

  /// Re-expresses a raw sanitized phase relative to the anchor.
  [[nodiscard]] double relative_phase(double raw_phase) const noexcept;

  /// The shape every consumer indexes by: in every position, the
  /// orientation series has one sample per CSI sample (the matcher reads
  /// theta at a CSI match index), both series have a finite grid step
  /// dt >= kMinProfileDt (the estimator sizes its query as window / dt),
  /// and every stored double is finite. The profile decoders reject a
  /// profile that breaks it, so a hostile log or open-session frame
  /// cannot crash the tracker.
  [[nodiscard]] bool well_formed() const noexcept;
};

}  // namespace vihot::core
