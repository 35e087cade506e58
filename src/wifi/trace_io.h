// CSI / IMU capture files: the text form a real capture lands in.
//
// A real deployment collects CSI with the Intel 5300 tool on one machine
// and analyzes it elsewhere. Its dumps convert to this self-describing
// CSV, which `vihot_replay import` turns into a .vrlog (the one replay
// format). Values are decimal text; 17 significant digits
// (max_digits10) carry any double exactly.
//
//   # vihot-csi v1 antennas=2 subcarriers=30
//   t,re00,im00,...,re0K,im0K,re10,im10,...     (one line per frame)
//
//   # vihot-imu v1
//   t,gyro_yaw,accel_lateral                    (one line per sample)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "imu/imu.h"
#include "wifi/csi.h"

namespace vihot::wifi {

/// Reads a CSI capture; std::nullopt on missing file, bad header
/// (including zero or absurdly many subcarriers), or a malformed row.
/// Frames keep their original timestamps and order.
[[nodiscard]] std::optional<std::vector<CsiMeasurement>> read_csi_trace(
    const std::string& path);

/// Reads an IMU trace; std::nullopt on missing file or malformed rows.
[[nodiscard]] std::optional<std::vector<imu::ImuSample>> read_imu_trace(
    const std::string& path);

}  // namespace vihot::wifi
