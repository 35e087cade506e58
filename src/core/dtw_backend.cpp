#include "core/dtw_backend.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/sink.h"

namespace vihot::core {

const char* to_string(TrackerBackend backend) noexcept {
  switch (backend) {
    case TrackerBackend::kEkf:
      return "ekf";
    case TrackerBackend::kDtw:
    default:
      return "dtw";
  }
}

bool parse_tracker_backend(const char* name, TrackerBackend* out) noexcept {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "dtw") == 0) {
    *out = TrackerBackend::kDtw;
    return true;
  }
  if (std::strcmp(name, "ekf") == 0) {
    *out = TrackerBackend::kEkf;
    return true;
  }
  return false;
}

DtwOrientationBackend::DtwOrientationBackend(const TrackerConfig& config)
    : config_(config),
      analyzer_({config_.matcher.window_s, config_.flat_spread_rad,
                 config_.moving_spread_rad}),
      slot_matcher_({config_.matcher, config_.neighbor_slots,
                     config_.bias_correction, config_.soft_continuity_weight,
                     config_.tie_break_ratio}),
      relock_({config_.relock_distance, config_.relock_patience}),
      tie_breaker_(config_.tie_break_ratio) {}

void DtwOrientationBackend::set_stats(obs::TrackerStats* stats) {
  stats_ = stats;
  analyzer_.set_stats(stats);
  slot_matcher_.set_stats(stats);
  relock_.set_stats(stats);
  tie_breaker_.set_stats(stats);
}

double DtwOrientationBackend::rate_filtered(double t, double theta) {
  if (!config_.jump_filter_enabled || !have_output_) {
    have_output_ = true;
    last_output_t_ = t;
    last_output_theta_ = theta;
    rejected_in_row_ = 0;
    return theta;
  }
  const double dt = std::max(t - last_output_t_, 1e-4);
  const double max_step = config_.max_theta_rate_rad_s * dt + 0.02;
  if (std::abs(theta - last_output_theta_) > max_step &&
      rejected_in_row_ < config_.jump_filter_patience) {
    // Implausible jump: hold the previous output (Sec. 3.6's "jumpy
    // estimation caused by a small & bursty steering motion").
    ++rejected_in_row_;
    last_output_t_ = t;
    return last_output_theta_;
  }
  rejected_in_row_ = 0;
  last_output_t_ = t;
  last_output_theta_ = theta;
  return theta;
}

std::optional<ContinuityHint> DtwOrientationBackend::make_hint(
    double t_now) const {
  ContinuityHint hint;
  if (have_output_) {
    // The head cannot have moved further than max rate * elapsed since
    // the previous output.
    const double elapsed = std::max(t_now - last_output_t_, 0.0);
    hint.theta_rad = last_output_theta_;
    hint.max_dev_rad = config_.max_theta_rate_rad_s * elapsed +
                       config_.continuity_slack_rad;
    return hint;
  }
  if (config_.assume_forward_start) {
    // Trips start with the driver facing the road (Sec. 3.4.1).
    hint.theta_rad = 0.0;
    hint.max_dev_rad = 0.5;
    return hint;
  }
  return std::nullopt;
}

OrientationEstimate DtwOrientationBackend::match_slot(
    double t_now, const BackendContext& ctx, const ContinuityHint* hint,
    bool soft_prior) {
  const SlotMatcher::Result r = slot_matcher_.match(
      *ctx.profile, *ctx.phase, ctx.position_slot, t_now, hint,
      soft_prior && have_output_, last_output_theta_,
      {ctx.have_stable_phi0, ctx.stable_phi0});
  if (r.estimate.valid) matched_slot_ = r.matched_slot;
  return r.estimate;
}

BackendOutput DtwOrientationBackend::estimate(double t_now,
                                              const BackendContext& ctx) {
  BackendOutput out;
  if (stats_ != nullptr) stats_->backend_dtw_estimates.inc();

  // [2] Window regime: a featureless window holds the previous output.
  const WindowAnalyzer::Analysis window =
      analyzer_.analyze(*ctx.phase, t_now, have_output_);
  if (window.regime == WindowRegime::kFlat) {
    out.valid = true;
    out.theta_rad = last_output_theta_;
    last_output_t_ = t_now;
    return out;
  }
  const bool global = window.regime == WindowRegime::kGlobal;

  // [3] Slot match: continuity-hinted unless the window is feature-rich.
  const std::optional<ContinuityHint> hint =
      global ? std::nullopt : make_hint(t_now);
  OrientationEstimate est =
      match_slot(t_now, ctx, hint ? &*hint : nullptr, /*soft_prior=*/global);

  // [4] Staged re-lock when the hinted match keeps scoring poorly.
  const RelockPolicy::Action relock = relock_.observe(hint.has_value(), est);
  if (relock != RelockPolicy::Action::kNone) {
    OrientationEstimate retry;
    if (relock == RelockPolicy::Action::kWiden) {
      ContinuityHint wide = *hint;
      wide.max_dev_rad *= relock_.config().widen_factor;
      retry = match_slot(t_now, ctx, &wide, false);
    } else {
      retry = match_slot(t_now, ctx, nullptr, true);
    }
    if (RelockPolicy::accept(retry, est)) {
      if (stats_ != nullptr) stats_->relock_accepted.inc();
      est = retry;
      // The re-lock result bypasses the rate filter: accept the jump.
      have_output_ = false;
    }
  }

  // [5] Twin-branch tie-break on ambiguous global matches.
  if (global && have_output_) tie_breaker_.apply(est, last_output_theta_);

  out.raw = est;
  if (!est.valid) return out;
  out.valid = true;
  if (global) {
    // Accept the global result as-is; the rate filter would fight the
    // very re-convergence the global match provides.
    have_output_ = true;
    last_output_t_ = t_now;
    last_output_theta_ = est.theta_rad;
    rejected_in_row_ = 0;
    out.theta_rad = est.theta_rad;
  } else {
    out.theta_rad = rate_filtered(t_now, est.theta_rad);
  }
  return out;
}

double DtwOrientationBackend::fallback_output(double t, double theta_rad) {
  return rate_filtered(t, theta_rad);
}

void DtwOrientationBackend::relock_after_gap() {
  have_output_ = false;
  rejected_in_row_ = 0;
  relock_.reset();
}

}  // namespace vihot::core
