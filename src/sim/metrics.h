// Evaluation metrics: angular deviation statistics and CDFs (Sec. 5.1's
// "performance metric & benchmark").
#pragma once

#include <string>
#include <vector>

#include "util/cdf.h"

namespace vihot::sim {

/// Error samples (degrees) from one or more sessions, with helpers for
/// the summaries every figure reports.
class ErrorCollector {
 public:
  void add(double error_deg) { errors_deg_.push_back(error_deg); }
  void merge(const ErrorCollector& other);

  [[nodiscard]] bool empty() const noexcept { return errors_deg_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return errors_deg_.size();
  }
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return errors_deg_;
  }

  [[nodiscard]] double median_deg() const;
  [[nodiscard]] double mean_deg() const;
  [[nodiscard]] double stddev_deg() const;
  [[nodiscard]] double max_deg() const;
  [[nodiscard]] double percentile_deg(double p) const;
  [[nodiscard]] util::EmpiricalCdf cdf() const;

 private:
  std::vector<double> errors_deg_;
};

/// Angular deviation in degrees between estimate and truth (both rad).
[[nodiscard]] double angular_error_deg(double estimate_rad,
                                       double truth_rad) noexcept;

}  // namespace vihot::sim
