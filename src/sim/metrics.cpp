#include "sim/metrics.h"

#include "util/angle.h"
#include "util/stats.h"

namespace vihot::sim {

void ErrorCollector::merge(const ErrorCollector& other) {
  errors_deg_.insert(errors_deg_.end(), other.errors_deg_.begin(),
                     other.errors_deg_.end());
}

double ErrorCollector::median_deg() const { return util::median(errors_deg_); }
double ErrorCollector::mean_deg() const { return util::mean(errors_deg_); }
double ErrorCollector::stddev_deg() const {
  return util::stddev(errors_deg_);
}
double ErrorCollector::max_deg() const { return util::max_of(errors_deg_); }
double ErrorCollector::percentile_deg(double p) const {
  return util::percentile(errors_deg_, p);
}
util::EmpiricalCdf ErrorCollector::cdf() const {
  return util::EmpiricalCdf(errors_deg_);
}

double angular_error_deg(double estimate_rad, double truth_rad) noexcept {
  return util::rad_to_deg(util::angular_dist(estimate_rad, truth_rad));
}

}  // namespace vihot::sim
