// Scalar-series smoothing used to clean CSI phase streams for plotting.
//
// The sanitizer (core/sanitizer.h) removes CFO/SFO structurally via the
// antenna phase difference; what remains is thermal noise (Z in Eq. 2),
// which a centered moving average smooths out of the Fig. 3 curves.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vihot::dsp {

/// Centered moving average with the given odd window (edges use the
/// available neighborhood). window == 1 returns the input unchanged.
[[nodiscard]] std::vector<double> moving_average(std::span<const double> xs,
                                                 std::size_t window);

}  // namespace vihot::dsp
