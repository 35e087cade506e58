// Pipeline stage 5: twin-branch tie-break (DESIGN.md Sec. 5b, ext. 4).
//
// Several far-apart profile regions can fit a windowed phase equally well
// ("twin branches": same level, same local slope). Among the near-tied
// top candidates of a global match, continuity picks the one reachable
// from the previous output. Pure tie-breaking — a decisively better match
// always wins outright, so decisive shape evidence is never overridden.
#pragma once

#include "core/orientation_estimator.h"
#include "dsp/series_match.h"

namespace vihot::obs {
struct TrackerStats;
}

namespace vihot::core {

/// Re-picks the winner of an ambiguous global match by continuity.
class TieBreaker {
 public:
  TieBreaker() = default;
  /// `tie_break_ratio`: candidates within this factor of the best
  /// distance count as near-tied.
  explicit TieBreaker(double tie_break_ratio) : ratio_(tie_break_ratio) {}

  /// Applies the tie-break in place: among candidates within ratio of the
  /// best distance, the one whose end orientation is decisively closer to
  /// `last_theta_rad` replaces the winner. Returns true when the winner
  /// changed. No-op on invalid or unambiguous estimates.
  bool apply(OrientationEstimate& estimate, double last_theta_rad) const;

  [[nodiscard]] double ratio() const noexcept { return ratio_; }

  /// Candidates beyond this distance are never weighed: the shared
  /// dsp::tie_break_bar, at which the matcher also truncates its report.
  [[nodiscard]] double bar(double match_distance) const noexcept {
    return dsp::tie_break_bar(ratio_, match_distance);
  }

  /// Optional activation counter (winners flipped by continuity).
  void set_stats(obs::TrackerStats* stats) noexcept { stats_ = stats; }

 private:
  double ratio_ = 3.0;
  obs::TrackerStats* stats_ = nullptr;
};

}  // namespace vihot::core
