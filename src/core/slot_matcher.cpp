#include "core/slot_matcher.h"

#include <algorithm>
#include <cmath>

#include "obs/sink.h"

namespace vihot::core {

SlotMatcher::Result SlotMatcher::match(const CsiProfile& profile,
                                       const util::TimeSeries& phase,
                                       std::size_t slot, double t_now,
                                       const ContinuityHint* hint,
                                       bool soft_prior, double soft_theta_rad,
                                       const Bias& bias) const {
  Result out;
  out.matched_slot = slot;
  if (profile.empty()) return out;
  const std::size_t lo =
      slot > config_.neighbor_slots ? slot - config_.neighbor_slots : 0;
  const std::size_t hi =
      std::min(profile.size() - 1, slot + config_.neighbor_slots);
  dsp::SeriesMatchStats funnel;
  for (std::size_t j = lo; j <= hi; ++j) {
    const PositionProfile& pos = profile.positions[j];
    MatchContext context;
    context.hard_hint = hint;
    context.tie_break_ratio = config_.tie_break_ratio;
    context.phase_bias = (config_.bias_correction && bias.have)
                             ? bias.stable_phi0 - pos.fingerprint_phase
                             : 0.0;
    if (soft_prior) {
      context.soft_theta_rad = soft_theta_rad;
      context.soft_weight = config_.soft_continuity_weight;
    }
    const OrientationEstimate ej =
        matcher_.estimate(pos, phase, t_now, context);
    funnel.add(ej.scan);
    if (ej.valid && (!out.estimate.valid ||
                     ej.match_distance < out.estimate.match_distance)) {
      out.estimate = ej;
      out.matched_slot = j;
    }
  }
  if (stats_ != nullptr) {
    stats_->match_attempts.inc();
    // Prune funnel of this neighborhood's scans (fast-path visibility).
    stats_->match_candidates.inc(funnel.candidates);
    stats_->match_lb_endpoint_pruned.inc(funnel.lb_endpoint_pruned);
    stats_->match_lb_band_pruned.inc(funnel.lb_band_pruned);
    stats_->match_dtw_abandoned.inc(funnel.dtw_abandoned);
    stats_->match_dtw_evaluated.inc(funnel.dtw_evaluated);
    stats_->match_hits_filtered.inc(funnel.hits_filtered);
    if (out.estimate.valid) {
      stats_->dtw_best_cost.observe(out.estimate.match_distance);
      stats_->dtw_candidates.observe(
          static_cast<double>(out.estimate.candidates.size()));
    } else {
      stats_->match_invalid.inc();
    }
    if (config_.bias_correction && bias.have) {
      stats_->phase_bias_abs.observe(std::abs(
          bias.stable_phi0 -
          profile.positions[out.matched_slot].fingerprint_phase));
    }
  }
  return out;
}

}  // namespace vihot::core
