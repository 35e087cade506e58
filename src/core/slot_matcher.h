// Pipeline stage 3: bias-corrected neighbor-slot matching.
//
// Runs Algorithm 1 against the Eq.-(4) head-position slot AND its grid
// neighbors, keeping the best DTW distance: the session's true head
// position generally falls between two profiled positions, so the
// neighbor curves bracket the session's curve and one of them fits far
// better than the nominal slot alone. The session-wide phase bias (stable
// forward phase minus the slot fingerprint, DESIGN.md Sec. 5b ext. 3) is
// subtracted from the run-time window before each per-slot match.
//
// The stage is stateless and const: one instance can serve any number of
// concurrent sessions against shared immutable profiles.
#pragma once

#include <cstddef>
#include <limits>

#include "core/orientation_estimator.h"
#include "core/profile.h"
#include "util/time_series.h"

namespace vihot::obs {
struct TrackerStats;
}

namespace vihot::core {

/// Matches a phase window against a profile slot neighborhood.
class SlotMatcher {
 public:
  struct Config {
    MatcherConfig matcher{};
    /// Also try this many grid neighbors on each side of the slot.
    std::size_t neighbor_slots = 0;
    /// Subtract the per-slot session bias before matching.
    bool bias_correction = true;
    /// Soft continuity prior weight for global matches (0 = disabled).
    double soft_continuity_weight = 0.0;
    /// The TieBreaker's ratio: the estimates carry the alternates it can
    /// weigh and none past its bar (+inf: the full top-K).
    double tie_break_ratio = std::numeric_limits<double>::infinity();
  };

  SlotMatcher() = default;
  explicit SlotMatcher(const Config& config)
      : config_(config), matcher_(config.matcher) {}

  /// Session phase-bias calibration input (from the stable-phase path).
  struct Bias {
    bool have = false;
    double stable_phi0 = 0.0;  ///< the session's stable forward phase
  };

  struct Result {
    OrientationEstimate estimate{};
    /// Slot whose curve won (== `slot` when the estimate is invalid).
    std::size_t matched_slot = 0;
  };

  /// Matches the window ending at `t_now` against `slot` and its
  /// neighbors. `hint` constrains candidate end orientations (nullptr =
  /// unconstrained); `soft_prior` additionally applies the soft
  /// continuity penalty centered on `soft_theta_rad`.
  [[nodiscard]] Result match(const CsiProfile& profile,
                             const util::TimeSeries& phase, std::size_t slot,
                             double t_now, const ContinuityHint* hint,
                             bool soft_prior, double soft_theta_rad,
                             const Bias& bias) const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Optional match-quality counters (attempts, best cost, candidates,
  /// applied bias magnitude).
  void set_stats(obs::TrackerStats* stats) noexcept { stats_ = stats; }

 private:
  Config config_;
  OrientationEstimator matcher_;
  obs::TrackerStats* stats_ = nullptr;
};

}  // namespace vihot::core
