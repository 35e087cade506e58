#include "util/time_series.h"

#include <algorithm>
#include <cassert>

namespace vihot::util {

void TimeSeries::push(double t, double value) {
  assert(samples_.empty() || t >= samples_.back().t);
  samples_.push_back({t, value});
}

double TimeSeries::duration() const noexcept {
  if (samples_.size() < 2) return 0.0;
  return samples_.back().t - samples_.front().t;
}

double TimeSeries::interpolate(double t) const noexcept {
  assert(!samples_.empty());
  if (t <= samples_.front().t) return samples_.front().value;
  if (t >= samples_.back().t) return samples_.back().value;
  const std::size_t hi = lower_bound(t);
  const std::size_t lo = hi - 1;
  const Sample& a = samples_[lo];
  const Sample& b = samples_[hi];
  const double span = b.t - a.t;
  if (span <= 0.0) return a.value;
  const double frac = (t - a.t) / span;
  return a.value + frac * (b.value - a.value);
}

TimeSeries TimeSeries::slice(double t0, double t1) const {
  TimeSeries out;
  for (const Sample& s : samples_) {
    if (s.t < t0) continue;
    if (s.t > t1) break;
    out.push(s.t, s.value);
  }
  return out;
}

void TimeSeries::drop_front(std::size_t n) noexcept {
  samples_.erase(samples_.begin(),
                 samples_.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(n, samples_.size())));
}

std::size_t TimeSeries::lower_bound(double t) const noexcept {
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const Sample& s, double needle) { return s.t < needle; });
  return static_cast<std::size_t>(it - samples_.begin());
}

std::optional<TimeSeries::MinMax> TimeSeries::minmax_in(
    double t0, double t1) const noexcept {
  std::optional<MinMax> out;
  for (std::size_t k = lower_bound(t0);
       k < samples_.size() && samples_[k].t <= t1; ++k) {
    const double v = samples_[k].value;
    if (!out) {
      out = MinMax{v, v};
    } else {
      out->min = std::min(out->min, v);
      out->max = std::max(out->max, v);
    }
  }
  return out;
}

std::vector<double> TimeSeries::times() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) out.push_back(s.t);
  return out;
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) out.push_back(s.value);
  return out;
}

double UniformSeries::interpolate(double t) const noexcept {
  assert(!values.empty());
  if (dt <= 0.0 || values.size() == 1) return values.front();
  const double pos = (t - t0) / dt;
  if (pos <= 0.0) return values.front();
  if (pos >= static_cast<double>(values.size() - 1)) return values.back();
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

}  // namespace vihot::util
