// ViHotTracker: the run-time pipeline (Fig. 4's run-time half), composed
// from five small, independently testable stages:
//
//   CSI frames ─► sanitizer ─► relative-phase buffer
//                              └─► stable-phase detector ─► Eq. (4)
//                                      (position slot + session bias)
//
//   estimate(t):
//     [1] ModeArbiter      IMU ─► steering identifier; during steering
//                          interference output the (fresh) camera
//                          fallback estimate instead of matching
//     [2]..[5] + rate ("jump") filter ─► OrientationBackend ─► TrackResult
//
// The sanitize stage and the stage [2]..[5] block are pluggable
// backends (PhaseSanitizer / OrientationBackend, selected by
// TrackerConfig::{sanitizer,tracker}_backend): the defaults — the
// stateless Eq. 3 CsiSanitizer and the DTW pipeline
// (WindowAnalyzer ─► SlotMatcher ─► RelockPolicy ─► TieBreaker, in
// DtwOrientationBackend) — are bit-identical to the pre-backend
// tracker; the alternatives are Kalman phase recovery and continuous
// EKF fusion of the IMU gyro stream (src/fusion/ekf_backend.h).
//
// The tracker itself only wires the stages and holds per-session state
// (phase buffer, position slot, stable-phase bias). Profiles are shared
// immutable data: many trackers — e.g. the sessions of an
// engine::TrackerEngine — can match against one CsiProfile concurrently.
#pragma once

#include <memory>
#include <optional>

#include "camera/camera_tracker.h"
#include "core/forecaster.h"
#include "core/kalman_sanitizer.h"
#include "core/mode_arbiter.h"
#include "core/orientation_backend.h"
#include "core/orientation_estimator.h"
#include "core/phase_sanitizer.h"
#include "core/position_estimator.h"
#include "core/profile.h"
#include "core/sanitizer.h"
#include "core/stability.h"
#include "core/steering_identifier.h"
#include "util/time_series.h"
#include "wifi/csi.h"

namespace vihot::obs {
struct Sink;
}

namespace vihot::core {

/// Everything tunable about the run-time tracker.
struct TrackerConfig {
  SanitizerConfig sanitizer{};
  MatcherConfig matcher{};
  StablePhaseDetector::Config stability{};
  SteeringIdentifier::Config steering{};

  /// Output rate limit: estimates implying a faster head turn than this
  /// are rejected as interference glitches (head turns top out well below
  /// 300 deg/s). After `jump_filter_patience` consecutive rejections the
  /// filter yields, so a genuinely lost tracker can re-converge.
  /// Off by default: the continuity-constrained matcher already enforces
  /// the same physical bound at the matching stage (where it can choose a
  /// better candidate instead of merely holding the old output), and the
  /// ablation bench shows the extra output filter only delays recovery.
  bool jump_filter_enabled = false;
  double max_theta_rate_rad_s = 5.2;
  int jump_filter_patience = 6;

  /// Camera fallback estimates older than this are considered stale.
  double camera_staleness_s = 0.25;

  /// Stale-window guard: a CSI feed gap wider than this (dropped link,
  /// burst loss) invalidates the continuity state — the last output no
  /// longer bounds where the head is, so holding it (flat regime) or
  /// hinting from it would extrapolate across the gap. The tracker
  /// resets continuity and re-locks from scratch instead; counted as
  /// tracker.stale_window_relocks. 0 disables the guard.
  double stale_window_s = 0.75;

  /// Continuity-constrained matching: the matched segment must end within
  /// reach of the previous output (max_theta_rate * elapsed + this slack).
  double continuity_slack_rad = 0.25;
  /// Escape hatch: when the constrained match stays this poor (normalized
  /// DTW distance) for `relock_patience` consecutive estimates, the
  /// tracker re-locks with an unconstrained global search.
  double relock_distance = 0.02;
  int relock_patience = 4;
  /// Assume the driver faces forward when tracking starts (trip start).
  bool assume_forward_start = true;

  /// A stable phase only re-localizes the head position (Eq. 4) if it is
  /// plausibly a forward-facing phase: within this margin of the range of
  /// profiled fingerprints. A driver dwelling on the mirror produces a
  /// stable phase too, but one far outside the fingerprint range.
  double fingerprint_gate_margin_rad = 0.25;

  /// Also try the matched position's grid neighbors and keep the best
  /// DTW distance. The head usually sits between two profiled positions;
  /// the neighbor curves bracket the session's true curve, so one of them
  /// matches far better than the nominal Eq.-(4) slot alone.
  std::size_t neighbor_slots = 0;

  /// Subtract the per-slot session bias (stable forward phase minus the
  /// slot fingerprint) from the run-time window before matching.
  bool bias_correction = true;

  /// Window-energy mode switch. A window with peak-to-peak phase spread
  /// below `flat_spread_rad` carries no features: the head is still, so
  /// the previous orientation is held (matching a flat window is pure
  /// ambiguity). A spread above `moving_spread_rad` is feature-rich: a
  /// GLOBAL match is reliable and self-correcting, so no continuity hint
  /// is imposed (hints chain errors). In between, the hinted match with
  /// the staged re-lock applies.
  double flat_spread_rad = 0.05;
  double moving_spread_rad = 0.30;

  /// Twin-branch tie-break: when the global match's runner-up is within
  /// this factor of the best distance (and the two end orientations
  /// differ), prefer the candidate closer to the previous output. Pure
  /// tie-breaking — an unambiguous window always wins outright.
  double tie_break_ratio = 3.0;

  /// Soft continuity prior weight for the global (strong-motion) match,
  /// in normalized-DTW-distance units per rad^2 of angular jump.
  /// Disabled by default: a prior strong enough to break twin-branch
  /// ties also chains an earlier mistake into every later match, which
  /// measures worse than letting the global match self-correct.
  double soft_continuity_weight = 0.0;

  /// Sanitize-stage backend selection (+ the Kalman backend's tuning,
  /// used only when sanitizer_backend == kKalman). The default kEqDiff
  /// path is bit-identical to the pre-backend pipeline.
  SanitizerBackend sanitizer_backend = SanitizerBackend::kEqDiff;
  KalmanSanitizerConfig kalman{};

  /// Track-stage backend selection (+ the EKF backend's tuning, used
  /// only when tracker_backend == kEkf). The default kDtw path is
  /// bit-identical to the pre-backend pipeline.
  TrackerBackend tracker_backend = TrackerBackend::kDtw;
  EkfFusionConfig ekf{};

  /// Optional metrics sink the pipeline stages report into (nullptr =
  /// observability off, zero overhead). Not owned; must outlive the
  /// tracker. One sink may be shared by many trackers — the counters are
  /// thread-safe and aggregate fleet-wide.
  obs::Sink* sink = nullptr;
};

/// One tracking output.
struct TrackResult {
  bool valid = false;
  double t = 0.0;
  double theta_rad = 0.0;
  TrackingMode mode = TrackingMode::kCsi;
  std::size_t position_slot = 0;  ///< profile slot used for matching
  /// Raw matcher output (diagnostics; not rate-filtered).
  OrientationEstimate raw{};
};

/// The run-time head tracker: stage wiring + per-session state.
class ViHotTracker {
 public:
  /// Shares an immutable profile (the fleet-serving form: one profile,
  /// many sessions, zero copies).
  ViHotTracker(std::shared_ptr<const CsiProfile> profile,
               const TrackerConfig& config);

  /// Owns a private copy of the profile (the single-session form).
  ViHotTracker(CsiProfile profile, const TrackerConfig& config);

  /// Feed one CSI frame (order by time across all push_* calls).
  void push_csi(const wifi::CsiMeasurement& m);

  /// Feed one phone-IMU sample.
  void push_imu(const imu::ImuSample& sample);

  /// Feed one camera estimate (only consumed while in fallback mode, but
  /// harmless to stream continuously).
  void push_camera(const camera::CameraTracker::Estimate& estimate);

  /// Estimate the head orientation at `t_now` (<= last pushed CSI time).
  [[nodiscard]] TrackResult estimate(double t_now);

  /// Forecast `horizon_s` past the LAST successful estimate() (Eq. 6).
  [[nodiscard]] Forecast forecast(double horizon_s) const;

  /// Current believed head-position slot (Eq. 4; diagnostics).
  [[nodiscard]] std::size_t position_slot() const noexcept {
    return position_slot_;
  }
  [[nodiscard]] TrackingMode mode() const noexcept {
    return arbiter_.mode();
  }
  [[nodiscard]] const CsiProfile& profile() const noexcept {
    return *profile_;
  }
  [[nodiscard]] const TrackerConfig& config() const noexcept {
    return config_;
  }

  /// The active backends (diagnostics / tests).
  [[nodiscard]] const PhaseSanitizer& sanitizer() const noexcept {
    return *sanitizer_;
  }
  [[nodiscard]] const OrientationBackend& backend() const noexcept {
    return *backend_;
  }

  /// Buffered sanitized-phase samples (at most twice the history's
  /// sample cap) and the stable-phase detector (diagnostics / tests).
  [[nodiscard]] std::size_t phase_history_size() const noexcept {
    return phase_buffer_.size();
  }
  [[nodiscard]] const StablePhaseDetector& stability() const noexcept {
    return stability_;
  }

 private:
  std::shared_ptr<const CsiProfile> profile_;
  TrackerConfig config_;
  double fingerprint_min_ = 0.0;
  double fingerprint_max_ = 0.0;

  // The sanitize + track backends (make_phase_sanitizer /
  // make_orientation_backend on config_) and the feed-side stages.
  std::unique_ptr<PhaseSanitizer> sanitizer_;
  std::unique_ptr<OrientationBackend> backend_;
  StablePhaseDetector stability_;
  ModeArbiter arbiter_;

  // Per-session state.
  util::TimeSeries phase_buffer_;  ///< relative sanitized phase
  std::size_t phase_cap_ = 0;      ///< phase_buffer_ sample cap
  std::size_t position_slot_ = 0;
  double last_stable_phi0_ = 0.0;
  bool have_stable_phi0_ = false;
  std::optional<OrientationEstimate> last_match_;
  bool stale_pending_ = false;  ///< a feed gap was seen; relock next tick
};

}  // namespace vihot::core
