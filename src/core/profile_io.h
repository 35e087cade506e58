// CSI-profile persistence.
//
// A driver's profile is built once (Sec. 3.3) and reused across trips —
// possibly updated after each one (JointProfiler::update). That only
// works if the profile survives the process: this module serializes
// CsiProfile to a self-describing text format and back.
//
//   # vihot-profile v1 rate=<hz> reference=<rad> positions=<n>
//   position <index> fingerprint <rad> t0 <s> dt <s> samples <k>
//   <csi_0>,<theta_0>
//   ...
#pragma once

#include <optional>
#include <string>

#include "core/profile.h"

namespace vihot::core {

/// Writes a profile; returns false on I/O failure.
bool save_profile(const std::string& path, const CsiProfile& profile);

/// Reads a profile; std::nullopt on missing file, bad header, malformed
/// rows, or a profile that is not CsiProfile::well_formed().
[[nodiscard]] std::optional<CsiProfile> load_profile(
    const std::string& path);

}  // namespace vihot::core
