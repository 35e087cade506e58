// Import: brings a text capture into the one replay format.
//
// A wifi/trace_io capture (<prefix>.csi + <prefix>.imu, the form a real
// Intel 5300 dump converts to) is tracked against a calibration profile
// and recorded as a .vrlog through the live TrackerEngine + Recorder
// path, so it replays bit-identically by construction. The profile is
// the single kProfile chunk of a .vrlog (e.g. a `vihot_sim --record`
// run): profiles persist in one format, and one serves many trips.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/profile.h"

namespace vihot::replay {

/// The one profile in the .vrlog at `path`. nullopt, with `*error` set,
/// when the log is unreadable or corrupt, or holds zero or several
/// profiles (which calibration to use would be a guess).
[[nodiscard]] std::optional<core::CsiProfile> read_log_profile(
    const std::string& path, std::string* error);

/// Tick schedule: the first estimate after warm-up, then one every
/// kImportTickS while t is below the last CSI timestamp.
inline constexpr double kImportFirstTickS = 1.5;
inline constexpr double kImportTickS = 0.05;

struct ImportResult {
  std::string error;  ///< why the import failed; empty on success
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
  std::size_t csi_frames = 0;
  std::size_t imu_samples = 0;
  std::size_t ticks = 0;
};

/// Tracks `<prefix>.csi` + `<prefix>.imu` in one session (default
/// core::TrackerConfig) against the profile of `profile_log` and records
/// the run to `out_path`. Fails, leaving no output file, on an unreadable
/// or empty capture, a bad profile log, a sample the engine rejects (out
/// of order or non-finite), or a write error.
[[nodiscard]] ImportResult import_capture(const std::string& prefix,
                                          const std::string& out_path,
                                          const std::string& profile_log);

}  // namespace vihot::replay
