// Head-orientation estimation: the DTW series-matching Algorithm 1
// (Secs. 3.4.3-3.4.5).
//
// A single phase reading cannot identify the orientation — the phase-to-
// orientation map is non-injective (Fig. 3) — so the estimator matches the
// whole recent phase window Phi_r = {phi_r(t) : t in [t-W, t]} against the
// profile series Phi*_c of the current head position, trying candidate
// segment lengths from 0.5W to 2W (DTW absorbs the residual head-speed
// mismatch). The orientation labelled at the matched segment's end is the
// estimate; the matched length also yields the profiling/run-time speed
// ratio the forecaster (Eq. 6) needs.
#pragma once

#include <limits>
#include <vector>

#include "core/profile.h"
#include "dsp/series_match.h"
#include "util/time_series.h"

namespace vihot::core {

/// Matcher tuning (defaults follow the paper's defaults of Sec. 5.1).
struct MatcherConfig {
  /// W: the CSI input window (100 ms default; Fig. 13b sweeps 10-300 ms).
  double window_s = 0.1;

  /// Candidate length range [0.5W, 2W] and enumeration step count.
  double min_length_factor = 0.5;
  double max_length_factor = 2.0;
  std::size_t num_lengths = 7;

  /// Profile start-offset stride (samples) for the segment search.
  std::size_t start_stride = 2;

  /// Sakoe-Chiba band as a fraction of the longer series.
  double band_fraction = 0.25;

  /// The resampled query keeps at least this many samples even for tiny
  /// windows (a 10 ms window at 200 Hz would otherwise be 2 samples).
  std::size_t min_query_samples = 6;

  /// Tolerated per-candidate DC phase offset (rad) inside the segment
  /// search. Disabled by default: a blanket offset allowance blurs branch
  /// identity. The tracker instead corrects the session-wide bias
  /// explicitly (TrackerConfig, phase-bias calibration) using the stable
  /// forward phase, which is unambiguous.
  double max_dc_offset_rad = 0.0;
};

/// One matching outcome.
struct OrientationEstimate {
  bool valid = false;
  double t = 0.0;          ///< time the estimate refers to
  double theta_rad = 0.0;  ///< estimated head orientation
  double match_distance = 0.0;
  /// Best non-overlapping runner-up (ambiguity diagnostic + twin-branch
  /// tie-breaking).
  double runner_up_distance = 0.0;
  bool runner_up_valid = false;
  double runner_up_theta_rad = 0.0;

  /// Top non-overlapping candidates: (distance, end orientation).
  struct AltCandidate {
    double distance = 0.0;
    double theta_rad = 0.0;
    double speed_ratio = 1.0;
    std::size_t match_start = 0;
    std::size_t match_length = 0;
  };
  std::vector<AltCandidate> candidates;
  /// Prune funnel of the winning scan (lower-bound cuts, DTW abandons,
  /// full evaluations) — surfaced through obs::TrackerStats.
  dsp::SeriesMatchStats scan;
  /// Matched segment within the position profile.
  std::size_t match_start = 0;
  std::size_t match_length = 0;
  /// Lm / W: profiling-to-run-time head-speed ratio (Sec. 3.4.6).
  double speed_ratio = 1.0;
};

/// Head-motion continuity constraint: the head cannot teleport, so the
/// matched segment must end at an orientation within `max_dev_rad` of
/// `theta_rad` (normally the previous output). Without it, a featureless
/// (flat or slowly drifting) window matches equally well anywhere the
/// profile has the same phase level — including far-away branches of the
/// non-injective curve.
struct ContinuityHint {
  double theta_rad = 0.0;
  double max_dev_rad = 0.45;
};

/// Everything contextual the matcher may use besides the raw window.
struct MatchContext {
  /// Hard continuity constraint (nullptr = unconstrained search).
  const ContinuityHint* hard_hint = nullptr;
  /// Soft continuity prior: adds soft_weight * (theta_end - soft_theta)^2
  /// to each candidate's normalized DTW distance. Breaks "twin branch"
  /// near-ties toward the previous estimate without forbidding decisive
  /// shape evidence from winning. soft_weight == 0 disables it.
  double soft_theta_rad = 0.0;
  double soft_weight = 0.0;
  /// Session-wide curve offset subtracted from the window before matching.
  double phase_bias = 0.0;
  /// Alternates after the runner-up are reported only up to the
  /// tie-break bar of this ratio (dsp::tie_break_bar); +inf reports the
  /// full top-K.
  double tie_break_ratio = std::numeric_limits<double>::infinity();
};

/// Evaluates Algorithm 1 against one position's profile.
class OrientationEstimator {
 public:
  OrientationEstimator();
  explicit OrientationEstimator(const MatcherConfig& config);

  /// Estimates the orientation at time `t_now` from the sanitized
  /// RELATIVE phase stream `recent_phase` (only samples in [t_now - W,
  /// t_now] are used). Returns valid == false until the stream covers a
  /// full window (the setup time of Algorithm 1, line 1).
  [[nodiscard]] OrientationEstimate estimate(
      const PositionProfile& position, const util::TimeSeries& recent_phase,
      double t_now, const MatchContext& context = {}) const;

  [[nodiscard]] const MatcherConfig& config() const noexcept {
    return config_;
  }

 private:
  MatcherConfig config_;
};

}  // namespace vihot::core
