// EXPECT_SAME_BITS: bit-pattern equality of two doubles (memcmp, not
// operator==), so -0.0 vs +0.0 and differing NaN payloads both fail.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace vihot {

inline bool bits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

inline ::testing::AssertionResult SameBits(const char* a_expr,
                                           const char* b_expr, double a,
                                           double b) {
  if (bits_equal(a, b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a_expr << " and " << b_expr << " differ: " << a << " vs " << b;
}

}  // namespace vihot

#define EXPECT_SAME_BITS(a, b) EXPECT_PRED_FORMAT2(::vihot::SameBits, a, b)
