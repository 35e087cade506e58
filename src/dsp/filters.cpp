#include "dsp/filters.h"

#include <algorithm>

namespace vihot::dsp {

std::vector<double> moving_average(std::span<const double> xs,
                                   std::size_t window) {
  std::vector<double> out(xs.begin(), xs.end());
  if (xs.size() < 2 || window <= 1) return out;
  const std::size_t half = window / 2;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Clamped neighborhood [i - half, i + half] within [0, n).
    const std::size_t lo = (i >= half) ? i - half : 0;
    const std::size_t hi = std::min(i + half, xs.size() - 1);
    double s = 0.0;
    for (std::size_t j = lo; j <= hi; ++j) s += xs[j];
    out[i] = s / static_cast<double>(hi - lo + 1);
  }
  return out;
}

}  // namespace vihot::dsp
