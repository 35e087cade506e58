#include "util/cdf.h"

#include <algorithm>
#include <cmath>

namespace vihot::util {

EmpiricalCdf::EmpiricalCdf(std::span<const double> samples)
    : sorted_(samples.begin(), samples.end()) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double p) const noexcept {
  if (sorted_.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto n = static_cast<double>(sorted_.size());
  // The epsilon guards against p*n landing epsilon above an integer when
  // p itself came from at() (k/n does not always round-trip in binary).
  auto idx = static_cast<std::size_t>(std::ceil(clamped * n - 1e-9));
  if (idx > 0) --idx;
  if (idx >= sorted_.size()) idx = sorted_.size() - 1;
  return sorted_[idx];
}

double EmpiricalCdf::max() const noexcept {
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double EmpiricalCdf::min() const noexcept {
  return sorted_.empty() ? 0.0 : sorted_.front();
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(
    double x_max, std::size_t points) const {
  std::vector<std::pair<double, double>> rows;
  if (points == 0) return rows;
  rows.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        x_max * static_cast<double>(i) / static_cast<double>(points - 1);
    rows.emplace_back(x, at(x));
  }
  return rows;
}

}  // namespace vihot::util
