// Strict numeric parsing for command-line flags.
//
// The whole token must be one number in [lo, hi]: std::from_chars, so no
// leading blanks, no trailing text and no '-' on unsigned types (strtoull
// would turn "-1" into 2^64-1), and NaN never passes the range check.
#pragma once

#include <charconv>
#include <cstring>
#include <system_error>

namespace vihot::util {

/// Parses `s` into `*out`; false (and `*out` untouched) on any defect.
template <typename T>
[[nodiscard]] bool parse_number(const char* s, T lo, T hi, T* out) {
  T value{};
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, value);
  if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace vihot::util
