#include "core/profile_io.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>

namespace vihot::core {

namespace {

constexpr char kMagic[] = "# vihot-profile v1";

/// Shape caps: a corrupt header or position line must not trigger
/// gigabyte reserves. Generous next to any real profile.
constexpr std::size_t kMaxPositions = 1u << 16;
constexpr std::size_t kMaxSamples = 1u << 24;

/// Parses the double after "<key>" in the header without throwing
/// (std::stod raises on garbage like "rate=abc" and on overflow).
std::optional<double> header_double(const std::string& header,
                                    const char* key) {
  const auto pos = header.find(key);
  if (pos == std::string::npos) return std::nullopt;
  const char* first = header.data() + pos + std::strlen(key);
  const char* last = header.data() + header.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr == first) return std::nullopt;
  return value;
}

}  // namespace

bool save_profile(const std::string& path, const CsiProfile& profile) {
  std::ofstream os(path);
  if (!os) return false;
  // max_digits10: the profile must reload as the same doubles, not
  // 12-digit approximations (bit-exact replay depends on it).
  os.precision(std::numeric_limits<double>::max_digits10);
  os << kMagic << " rate=" << profile.sample_rate_hz
     << " reference=" << profile.reference_phase
     << " positions=" << profile.positions.size() << '\n';
  for (const PositionProfile& p : profile.positions) {
    if (p.csi.size() != p.orientation.size()) return false;
    os << "position " << p.position_index << " fingerprint "
       << p.fingerprint_phase << " t0 " << p.csi.t0 << " dt " << p.csi.dt
       << " samples " << p.csi.size() << '\n';
    for (std::size_t k = 0; k < p.csi.size(); ++k) {
      os << p.csi.values[k] << ',' << p.orientation.values[k] << '\n';
    }
  }
  return static_cast<bool>(os);
}

std::optional<CsiProfile> load_profile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::string header;
  if (!std::getline(is, header) || header.rfind(kMagic, 0) != 0) {
    return std::nullopt;
  }
  CsiProfile profile;
  std::size_t expected_positions = 0;
  {
    const auto rate = header_double(header, "rate=");
    const auto ref = header_double(header, "reference=");
    const auto count = header_double(header, "positions=");
    if (!rate || !ref || !count || *count < 0.0 ||
        *count > static_cast<double>(kMaxPositions)) {
      return std::nullopt;
    }
    profile.sample_rate_hz = *rate;
    profile.reference_phase = *ref;
    expected_positions = static_cast<std::size_t>(*count);
  }

  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kw;
    PositionProfile p;
    std::size_t samples = 0;
    std::string fp_kw;
    std::string t0_kw;
    std::string dt_kw;
    std::string n_kw;
    if (!(ls >> kw >> p.position_index >> fp_kw >> p.fingerprint_phase >>
          t0_kw >> p.csi.t0 >> dt_kw >> p.csi.dt >> n_kw >> samples) ||
        kw != "position" || fp_kw != "fingerprint" || t0_kw != "t0" ||
        dt_kw != "dt" || n_kw != "samples" || samples > kMaxSamples ||
        profile.positions.size() >= kMaxPositions) {
      return std::nullopt;
    }
    p.orientation.t0 = p.csi.t0;
    p.orientation.dt = p.csi.dt;
    p.csi.values.reserve(samples);
    p.orientation.values.reserve(samples);
    for (std::size_t k = 0; k < samples; ++k) {
      if (!std::getline(is, line)) return std::nullopt;
      std::istringstream row(line);
      double phi = 0.0;
      double theta = 0.0;
      char comma = 0;
      if (!(row >> phi >> comma >> theta) || comma != ',') {
        return std::nullopt;
      }
      p.csi.values.push_back(phi);
      p.orientation.values.push_back(theta);
    }
    profile.positions.push_back(std::move(p));
  }
  if (profile.positions.size() != expected_positions ||
      !profile.well_formed()) {
    return std::nullopt;
  }
  return profile;
}

}  // namespace vihot::core
