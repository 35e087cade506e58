#include "core/orientation_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsp/resampler.h"

namespace vihot::core {

OrientationEstimator::OrientationEstimator()
    : OrientationEstimator(MatcherConfig{}) {}

OrientationEstimator::OrientationEstimator(const MatcherConfig& config)
    : config_(config) {}

OrientationEstimate OrientationEstimator::estimate(
    const PositionProfile& position, const util::TimeSeries& recent_phase,
    double t_now, const MatchContext& context) const {
  OrientationEstimate out;
  out.t = t_now;
  if (position.csi.size() < 4 || recent_phase.size() < 2) return out;

  // Setup time (Algorithm 1, line 1): the window must be full.
  const double t0 = t_now - config_.window_s;
  if (recent_phase.front().t > t0) return out;

  // Step 1 prep: resample the run-time window onto the profile's grid
  // rate (CSMA makes the raw spacing random, Sec. 3.4.3).
  const double rate = 1.0 / position.csi.dt;
  const auto count = std::max<std::size_t>(
      config_.min_query_samples,
      static_cast<std::size_t>(std::round(config_.window_s * rate)) + 1);
  util::UniformSeries query =
      dsp::resample_window(recent_phase, t0, t_now, count);
  if (query.size() < 2) return out;
  if (context.phase_bias != 0.0) {
    for (double& v : query.values) v -= context.phase_bias;
  }

  // Step 1: best match of the query in the profile series.
  dsp::SeriesMatchOptions opt;
  opt.min_length_factor = config_.min_length_factor;
  opt.max_length_factor = config_.max_length_factor;
  opt.num_lengths = config_.num_lengths;
  opt.start_stride = config_.start_stride;
  opt.dtw.band_fraction = config_.band_fraction;
  opt.max_dc_offset = config_.max_dc_offset_rad;
  const std::vector<double>& theta = position.orientation.values;
  // Continuity hint as a per-end-index penalty over the profile: the
  // matched segment's last sample carries the orientation estimate, so
  // only that sample's theta decides whether (hard hint) and how much
  // (soft prior) a candidate is held back.
  if (context.hard_hint != nullptr || context.soft_weight > 0.0) {
    thread_local std::vector<double> penalty;
    penalty.resize(theta.size());
    for (std::size_t e = 0; e < theta.size(); ++e) {
      double p = 0.0;
      if (context.hard_hint != nullptr &&
          !(std::abs(theta[e] - context.hard_hint->theta_rad) <=
            context.hard_hint->max_dev_rad)) {
        p = std::numeric_limits<double>::infinity();
      } else if (context.soft_weight > 0.0) {
        const double dev = theta[e] - context.soft_theta_rad;
        p = context.soft_weight * dev * dev;
      }
      penalty[e] = p;
    }
    opt.end_penalty = penalty;
  }
  const dsp::SeriesMatch match =
      dsp::find_best_match(query.values, position.csi.values, opt);
  out.scan = match.scan;
  if (!match.found) return out;

  // Steps 2-3: the orientation series shares the grid, so the matched
  // span's final sample is the estimate theta_hat(t) = Theta*_m(tau_e).
  const std::size_t last = match.end() - 1;
  out.valid = true;
  out.theta_rad = position.orientation.values[last];
  out.match_distance = match.distance;
  out.runner_up_distance = match.runner_up;
  if (match.runner_up_length > 0) {
    out.runner_up_valid = true;
    out.runner_up_theta_rad =
        theta[match.runner_up_start + match.runner_up_length - 1];
  }
  for (const auto& c : match.top) {
    OrientationEstimate::AltCandidate alt;
    alt.distance = c.distance;
    alt.theta_rad = theta[c.end() - 1];
    alt.match_start = c.start;
    alt.match_length = c.length;
    alt.speed_ratio = static_cast<double>(c.length - 1) * position.csi.dt /
                      config_.window_s;
    out.candidates.push_back(alt);
  }
  out.match_start = match.start;
  out.match_length = match.length;
  const double matched_span =
      static_cast<double>(match.length - 1) * position.csi.dt;
  out.speed_ratio = matched_span / config_.window_s;
  return out;
}

}  // namespace vihot::core
