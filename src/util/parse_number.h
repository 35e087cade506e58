// Strict numeric parsing for command-line flags.
//
// The whole token must be one number in [lo, hi]: std::from_chars, so no
// leading blanks, no trailing text and no '-' on unsigned types (strtoull
// would turn "-1" into 2^64-1), and NaN never passes the range check.
#pragma once

#include <charconv>
#include <cstdio>
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

/// The value of the flag at argv[i] as a number in [lo, hi], advancing i
/// past it. A missing or bad value prints "bad value for <flag>" and
/// calls usage(argv[0]), which must not return.
template <typename T>
T flag_number(int argc, char** argv, int& i, T lo, T hi,
              void (*usage)(const char*)) {
  const char* flag = argv[i];
  if (i + 1 >= argc) usage(argv[0]);
  T value{};
  if (!parse_number(argv[++i], lo, hi, &value)) {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, argv[i]);
    usage(argv[0]);
  }
  return value;
}

}  // namespace vihot::util
