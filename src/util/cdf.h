// Empirical CDFs. The paper's evaluation reports almost every result as a
// CDF of angular estimation error (Figs. 10b, 12, 13, 17); this type backs
// those reproductions.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vihot::util {

/// Empirical cumulative distribution function over a fixed sample set.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;

  /// Builds the CDF from samples (copied and sorted).
  explicit EmpiricalCdf(std::span<const double> samples);

  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }

  /// P(X <= x); 0 for an empty CDF.
  [[nodiscard]] double at(double x) const noexcept;

  /// Inverse CDF: smallest sample q with P(X <= q) >= p, p in [0, 1].
  [[nodiscard]] double quantile(double p) const noexcept;

  [[nodiscard]] double median() const noexcept { return quantile(0.5); }
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double min() const noexcept;

  /// The sorted samples (useful for plotting the full curve).
  [[nodiscard]] const std::vector<double>& sorted() const noexcept {
    return sorted_;
  }

  /// Samples the CDF on a uniform grid of `points` x-values spanning
  /// [0, x_max] and returns "x p" rows, e.g. for gnuplot-style output.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(
      double x_max, std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace vihot::util
