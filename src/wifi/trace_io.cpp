#include "wifi/trace_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <tuple>

namespace vihot::wifi {

namespace {

constexpr char kCsiMagic[] = "# vihot-csi v1";
constexpr char kImuMagic[] = "# vihot-imu v1";

/// Sanity cap on the declared subcarrier count: 802.11 CSI tops out in
/// the hundreds of subcarriers, so anything past this is a corrupt
/// header, not a real capture — reject instead of reserving gigabytes.
constexpr std::size_t kMaxSubcarriers = 4096;

/// Parses the unsigned value of "<key><uint>" out of the header without
/// throwing. nullopt on a missing key, non-numeric value, or overflow.
std::optional<std::size_t> header_field(const std::string& header,
                                        std::string_view key) {
  const auto pos = header.find(key);
  if (pos == std::string::npos) return std::nullopt;
  const char* first = header.data() + pos + key.size();
  const char* last = header.data() + header.size();
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr == first) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::vector<CsiMeasurement>> read_csi_trace(
    const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::string header;
  if (!std::getline(is, header) ||
      header.rfind(kCsiMagic, 0) != 0) {
    return std::nullopt;
  }
  // Defensive header parse: a corrupt header (garbage after the key, an
  // absurd count, the wrong antenna layout) must yield nullopt — never a
  // std::stoul throw or a runaway reserve.
  const std::optional<std::size_t> antennas =
      header_field(header, "antennas=");
  constexpr std::size_t kAntennas =
      std::tuple_size_v<decltype(CsiMeasurement::h)>;
  if (!antennas.has_value() || *antennas != kAntennas) return std::nullopt;
  const std::optional<std::size_t> subcarriers =
      header_field(header, "subcarriers=");
  // Zero subcarriers is no capture at all: every frame would sanitize to
  // phase 0.0 and be tracked as if it held data.
  if (!subcarriers.has_value() || *subcarriers == 0 ||
      *subcarriers > kMaxSubcarriers) {
    return std::nullopt;
  }
  const std::size_t nsc = *subcarriers;

  std::vector<CsiMeasurement> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    CsiMeasurement m;
    char comma = 0;
    if (!(ls >> m.t)) return std::nullopt;
    for (auto& row : m.h) {
      row.reserve(nsc);
      for (std::size_t f = 0; f < nsc; ++f) {
        double re = 0.0;
        double im = 0.0;
        if (!(ls >> comma >> re >> comma >> im)) return std::nullopt;
        row.emplace_back(re, im);
      }
    }
    // Trailing values mean the row disagrees with the header's declared
    // shape (e.g. a wider capture read under a narrower header): reject
    // rather than silently truncating the frame.
    char extra = 0;
    if (ls >> extra) return std::nullopt;
    out.push_back(std::move(m));
  }
  return out;
}

std::optional<std::vector<imu::ImuSample>> read_imu_trace(
    const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::string header;
  if (!std::getline(is, header) || header.rfind(kImuMagic, 0) != 0) {
    return std::nullopt;
  }
  std::vector<imu::ImuSample> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    imu::ImuSample s;
    char comma = 0;
    if (!(ls >> s.t >> comma >> s.gyro_yaw_rad_s >> comma >>
          s.accel_lateral_mps2)) {
      return std::nullopt;
    }
    out.push_back(s);
  }
  return out;
}

}  // namespace vihot::wifi
