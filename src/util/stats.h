// Descriptive statistics used by the evaluation layer (Sec. 5 of the paper
// reports medians, means with stddev error bars, and CDFs of angular error).
#pragma once

#include <cstddef>
#include <span>

namespace vihot::util {

[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Sample standard deviation; returns 0 for fewer than two samples.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Median via partial sort of a copy; returns 0 for an empty span.
[[nodiscard]] double median(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]. Empty input returns 0.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

[[nodiscard]] double min_of(std::span<const double> xs) noexcept;
[[nodiscard]] double max_of(std::span<const double> xs) noexcept;

/// Root-mean-square value.
[[nodiscard]] double rms(std::span<const double> xs) noexcept;

}  // namespace vihot::util
