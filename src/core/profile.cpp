#include "core/profile.h"

#include <algorithm>
#include <cmath>

#include "util/angle.h"

namespace vihot::core {

double CsiProfile::relative_phase(double raw_phase) const noexcept {
  return util::wrap_pi(raw_phase - reference_phase);
}

namespace {

bool finite(double v) noexcept { return std::isfinite(v); }

bool finite_grid(const util::UniformSeries& s) noexcept {
  return finite(s.t0) && finite(s.dt) && s.dt >= kMinProfileDt &&
         std::all_of(s.values.begin(), s.values.end(), finite);
}

}  // namespace

bool CsiProfile::well_formed() const noexcept {
  return finite(sample_rate_hz) && finite(reference_phase) &&
         std::all_of(positions.begin(), positions.end(),
                     [](const PositionProfile& p) {
                       return p.orientation.size() == p.csi.size() &&
                              finite(p.fingerprint_phase) &&
                              finite(p.true_position.x) &&
                              finite(p.true_position.y) &&
                              finite(p.true_position.z) &&
                              finite_grid(p.csi) && finite_grid(p.orientation);
                     });
}

}  // namespace vihot::core
