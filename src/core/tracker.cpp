#include "core/tracker.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/dtw_backend.h"
#include "fusion/ekf_backend.h"
#include "obs/sink.h"

namespace vihot::core {

namespace {

// Keep this much history in the phase buffer beyond what the matcher
// needs, so the stability detector always has a full window.
constexpr double kBufferSlackS = 1.5;

// History the phase buffer must cover: the longest candidate segment
// (window x max_length_factor), a full stability window, and the slack.
double history_span_s(const TrackerConfig& config) {
  return config.matcher.window_s * config.matcher.max_length_factor +
         config.stability.window_s + kBufferSlackS;
}

}  // namespace

std::unique_ptr<PhaseSanitizer> make_phase_sanitizer(
    const TrackerConfig& config) {
  switch (config.sanitizer_backend) {
    case SanitizerBackend::kKalman:
      return std::make_unique<KalmanPhaseSanitizer>(config.sanitizer,
                                                    config.kalman);
    case SanitizerBackend::kEqDiff:
    default:
      return std::make_unique<CsiSanitizer>(config.sanitizer);
  }
}

std::unique_ptr<OrientationBackend> make_orientation_backend(
    const TrackerConfig& config) {
  switch (config.tracker_backend) {
    case TrackerBackend::kEkf:
      return std::make_unique<fusion::EkfFusionBackend>(config);
    case TrackerBackend::kDtw:
    default:
      return std::make_unique<DtwOrientationBackend>(config);
  }
}

ViHotTracker::ViHotTracker(CsiProfile profile, const TrackerConfig& config)
    : ViHotTracker(std::make_shared<const CsiProfile>(std::move(profile)),
                   config) {}

ViHotTracker::ViHotTracker(std::shared_ptr<const CsiProfile> profile,
                           const TrackerConfig& config)
    : profile_(profile ? std::move(profile)
                       : std::make_shared<const CsiProfile>()),
      config_(config),
      sanitizer_(make_phase_sanitizer(config_)),
      backend_(make_orientation_backend(config_)),
      stability_(config_.stability),
      arbiter_(config_.steering, config_.camera_staleness_s),
      phase_cap_(csi_history_cap(history_span_s(config_))) {
  if (config_.sink != nullptr) {
    obs::TrackerStats* stats = &config_.sink->tracker;
    sanitizer_->set_stats(stats);
    backend_->set_stats(stats);
    arbiter_.set_stats(stats);
    stability_.set_stats(stats);
  }
  // Until the first stable segment localizes the head, assume the middle
  // profiled position (the natural sitting position).
  position_slot_ = profile_->size() / 2;
  if (!profile_->empty()) {
    fingerprint_min_ = profile_->positions.front().fingerprint_phase;
    fingerprint_max_ = fingerprint_min_;
    for (const PositionProfile& p : profile_->positions) {
      fingerprint_min_ = std::min(fingerprint_min_, p.fingerprint_phase);
      fingerprint_max_ = std::max(fingerprint_max_, p.fingerprint_phase);
    }
  }
}

void ViHotTracker::push_csi(const wifi::CsiMeasurement& m) {
  if (profile_->empty()) return;
  // Same rule as the engine's ingest boundary: a NaN timestamp would slip
  // past the out-of-order check below, and the stability detector needs
  // finite phases.
  if (!m.all_finite()) {
    if (config_.sink != nullptr) config_.sink->tracker.csi_non_finite.inc();
    return;
  }
  // An out-of-order frame would corrupt the lower_bound-based buffer
  // lookups downstream (TimeSeries::push only asserts in debug builds);
  // drop it and count the drop instead.
  if (!phase_buffer_.empty() && m.t < phase_buffer_.back().t) {
    if (config_.sink != nullptr) {
      config_.sink->tracker.csi_out_of_order.inc();
    }
    return;
  }
  // A feed gap wider than the stale window (link drop, burst loss) means
  // the buffer is resuming after a blind stretch: flag a continuity
  // relock for the next estimate instead of bridging the gap.
  if (config_.stale_window_s > 0.0 && !phase_buffer_.empty() &&
      m.t - phase_buffer_.back().t > config_.stale_window_s) {
    stale_pending_ = true;
  }
  const double rel = profile_->relative_phase(sanitizer_->sanitize(m));
  phase_buffer_.push(m.t, rel);

  // Trim history we can no longer need.
  const double keep_from = m.t - history_span_s(config_);
  if (!phase_buffer_.empty() && phase_buffer_.front().t < keep_from &&
      phase_buffer_.size() > 4096) {
    phase_buffer_ = phase_buffer_.slice(keep_from, m.t);
  }
  // The time trim cannot shrink a burst of equal or nanosecond-spaced
  // timestamps; the sample cap does, amortized O(1) per frame.
  if (phase_buffer_.size() > 2 * phase_cap_) {
    const std::size_t drop = phase_buffer_.size() - phase_cap_;
    phase_buffer_.drop_front(drop);
    if (config_.sink != nullptr) {
      config_.sink->tracker.csi_history_capped.inc(drop);
    }
  }

  // Stable phase -> the driver faces forward -> refresh the position
  // estimate (Sec. 3.4.1). Only while CSI is trusted: during a steering
  // event the flat-ish polluted phase must not re-localize the head.
  if (arbiter_.mode() == TrackingMode::kCsi && stability_.update(m.t, rel)) {
    // Gate on plausibility: a long dwell on the mirror is stable too, but
    // its phase sits outside the forward-facing fingerprint range.
    const double phi0 = stability_.stable_phase();
    if (phi0 > fingerprint_min_ - config_.fingerprint_gate_margin_rad &&
        phi0 < fingerprint_max_ + config_.fingerprint_gate_margin_rad) {
      const PositionEstimate pe = PositionEstimator::estimate(*profile_, phi0);
      if (pe.valid) {
        if (config_.sink != nullptr) {
          config_.sink->tracker.stable_phase_locks.inc();
        }
        position_slot_ = pe.profile_slot;
        // Session-wide phase-bias calibration: the head usually sits
        // between two profiled grid positions, offsetting the whole curve
        // by the residual of Eq. (4). The stable forward phase (where the
        // orientation is unambiguously 0 deg) anchors a per-slot bias
        // that the SlotMatcher subtracts from every run-time window.
        last_stable_phi0_ = phi0;
        have_stable_phi0_ = true;
      }
    }
  }
}

void ViHotTracker::push_imu(const imu::ImuSample& sample) {
  arbiter_.push_imu(sample);
  backend_->push_imu(sample);
}

void ViHotTracker::push_camera(const camera::CameraTracker::Estimate& e) {
  arbiter_.push_camera(e);
}

TrackResult ViHotTracker::estimate(double t_now) {
  TrackResult out;
  out.t = t_now;
  out.mode = arbiter_.mode();
  out.position_slot = position_slot_;
  if (config_.sink != nullptr) {
    obs::TrackerStats& stats = config_.sink->tracker;
    stats.estimates.inc();
    (out.mode == TrackingMode::kCsi ? stats.mode_csi : stats.mode_fallback)
        .inc();
  }
  if (profile_->empty()) return out;

  // [1] Mode arbitration: steering interference -> camera fallback
  // (Sec. 3.6.2 workflow).
  if (out.mode == TrackingMode::kCameraFallback) {
    const ModeArbiter::CameraDecision cam = arbiter_.camera_output(t_now);
    if (cam.valid) {
      out.valid = true;
      out.theta_rad = backend_->fallback_output(t_now, cam.theta_rad);
    }
    // Matching against polluted CSI is pointless; also invalidate the
    // cached match so forecasts don't extrapolate stale motion.
    last_match_.reset();
    return out;
  }

  // Stale-window guard: after a feed gap (flagged at push time), or when
  // the newest sample is already older than the stale window (mid-gap
  // estimate), the last output no longer bounds the head — drop the
  // continuity state so the backend re-locks instead of extrapolating.
  if (config_.stale_window_s > 0.0) {
    const bool blind = !phase_buffer_.empty() &&
                       t_now - phase_buffer_.back().t > config_.stale_window_s;
    if (stale_pending_ || (blind && backend_->have_output())) {
      if (config_.sink != nullptr) {
        config_.sink->tracker.stale_window_relocks.inc();
      }
      stale_pending_ = false;
      last_match_.reset();
      backend_->relock_after_gap();
    }
  }

  // [2]..[5]: the track-stage backend (window regime, slot match, relock
  // ladder, tie-break and the output filter live behind the interface).
  const BackendContext ctx{profile_.get(), &phase_buffer_, position_slot_,
                           have_stable_phi0_, last_stable_phi0_};
  const BackendOutput result = backend_->estimate(t_now, ctx);
  out.raw = result.raw;
  if (result.raw.valid) last_match_ = result.raw;
  out.valid = result.valid;
  out.theta_rad = result.theta_rad;
  return out;
}

Forecast ViHotTracker::forecast(double horizon_s) const {
  if (!last_match_ || profile_->empty()) return {};
  return Forecaster::forecast(profile_->positions[backend_->matched_slot()],
                              *last_match_, horizon_s);
}

}  // namespace vihot::core
