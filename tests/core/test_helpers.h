// Shared fixtures for core-module tests: synthetic profiles with known
// ground truth, plus a fast real profile built through the simulator.
#pragma once

#include <cmath>
#include <limits>
#include <vector>

#include "core/profile.h"
#include "sim/experiment.h"

namespace vihot::core::testing {

/// A synthetic position profile whose phase curve is an analytic,
/// invertible-by-series function of orientation: theta sweeps -1..1 rad
/// as a triangle wave, phase = f(theta) with a controlled shape.
inline PositionProfile synthetic_position(
    std::size_t index = 0, double fingerprint = 0.0,
    double rate_hz = 200.0, double sweep_speed_rad_s = 1.6,
    double duration_s = 8.0) {
  PositionProfile pos;
  pos.position_index = index;
  pos.fingerprint_phase = fingerprint;
  pos.csi.t0 = 0.0;
  pos.csi.dt = 1.0 / rate_hz;
  pos.orientation.t0 = 0.0;
  pos.orientation.dt = pos.csi.dt;
  const auto n = static_cast<std::size_t>(duration_s * rate_hz);
  const double period = 4.0 / sweep_speed_rad_s;  // span 2 rad out & back
  for (std::size_t k = 0; k < n; ++k) {
    const double t = pos.csi.time_at(k);
    // Triangle wave theta in [-1, 1].
    double u = std::fmod(t, period) / period;  // 0..1
    const double theta = (u < 0.5) ? (-1.0 + 4.0 * u) : (3.0 - 4.0 * u);
    // Non-injective phase curve: level + first + second harmonic.
    const double phase = fingerprint + 0.8 * std::sin(1.3 * theta) +
                         0.35 * std::sin(2.6 * theta + 0.7);
    pos.orientation.values.push_back(theta);
    pos.csi.values.push_back(phase);
  }
  return pos;
}

/// The synthetic phase function used above (for generating queries).
inline double synthetic_phase(double theta, double fingerprint = 0.0) {
  return fingerprint + 0.8 * std::sin(1.3 * theta) +
         0.35 * std::sin(2.6 * theta + 0.7);
}

/// A small multi-position profile with distinct fingerprints.
inline CsiProfile synthetic_profile(std::size_t positions = 5) {
  CsiProfile profile;
  profile.sample_rate_hz = 200.0;
  profile.reference_phase = 0.0;
  for (std::size_t i = 0; i < positions; ++i) {
    const double fp =
        -0.4 + 0.8 * static_cast<double>(i) /
                   static_cast<double>(positions > 1 ? positions - 1 : 1);
    profile.positions.push_back(synthetic_position(i, fp));
  }
  return profile;
}

/// Profiles that break CsiProfile::well_formed() in one way each, built
/// from synthetic_profile(2) by corrupting its second position. Every
/// profile decoder must reject all of them.
struct HostileProfile {
  const char* name;
  CsiProfile profile;
};

inline std::vector<HostileProfile> hostile_profiles() {
  const auto corrupt = [](auto mutate) {
    CsiProfile profile = synthetic_profile(2);
    mutate(profile.positions[1]);
    return profile;
  };
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {
      {"orientation shorter than csi",
       corrupt([](PositionProfile& p) { p.orientation.values.resize(10); })},
      {"negative dt", corrupt([](PositionProfile& p) {
         p.csi.dt = -0.005;
         p.orientation.dt = -0.005;
       })},
      {"NaN dt", corrupt([kNan](PositionProfile& p) { p.csi.dt = kNan; })},
      {"zero dt", corrupt([](PositionProfile& p) { p.orientation.dt = 0.0; })},
      // Positive but below kMinProfileDt: 1e-300 made the query size
      // cast out of range, 1e-9 sized every query at ~1e8 samples.
      {"dt 1e-300", corrupt([](PositionProfile& p) {
         p.csi.dt = 1e-300;
         p.orientation.dt = 1e-300;
       })},
      {"dt 1e-9", corrupt([](PositionProfile& p) {
         p.csi.dt = 1e-9;
         p.orientation.dt = 1e-9;
       })},
      {"NaN csi sample",
       corrupt([kNan](PositionProfile& p) { p.csi.values[5] = kNan; })},
      {"infinite orientation sample",
       corrupt([kInf](PositionProfile& p) { p.orientation.values[7] = kInf; })},
      {"infinite fingerprint",
       corrupt([kInf](PositionProfile& p) { p.fingerprint_phase = -kInf; })},
  };
}

/// A real profile built through the full simulator (shared across tests
/// in one binary; building takes ~0.5 s).
inline const sim::ScenarioConfig& fast_scenario() {
  static const sim::ScenarioConfig config = [] {
    sim::ScenarioConfig c;
    c.seed = 1234;
    c.runtime_sessions = 1;
    c.runtime_duration_s = 20.0;
    c.profiling_sweep_s = 8.0;
    return c;
  }();
  return config;
}

inline const CsiProfile& simulated_profile() {
  static const CsiProfile profile = [] {
    sim::ExperimentRunner runner(fast_scenario());
    return runner.build_profile();
  }();
  return profile;
}

}  // namespace vihot::core::testing
