// Matcher option sets shared by the matcher-equivalence suite and the
// forced-dispatch gate: every code path that transforms the series (DC
// shift) or scores candidates (end-index penalties, +inf exclusions),
// including exclusions that leave non-contiguous survivors inside one
// DTW batch.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "dsp/series_match.h"

namespace vihot::dsp {

struct NamedOptions {
  const char* name;
  SeriesMatchOptions opt;  ///< end_penalty left empty; see options()
  /// Per-end-index penalty over the reference, or empty for none.
  std::vector<double> penalty;

  /// The options with end_penalty viewing `penalty`.
  [[nodiscard]] SeriesMatchOptions options() const {
    SeriesMatchOptions o = opt;
    o.end_penalty = penalty;
    return o;
  }
};

/// The matrix for a reference of `reference_size` samples (the
/// penalties must cover it index for index).
inline std::vector<NamedOptions> option_matrix(std::size_t reference_size) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto over_ends = [reference_size](auto penalty_at) {
    std::vector<double> out(reference_size);
    for (std::size_t e = 0; e < reference_size; ++e) out[e] = penalty_at(e);
    return out;
  };

  std::vector<NamedOptions> out;
  SeriesMatchOptions base;
  base.dtw.band_fraction = 0.25;
  base.start_stride = 2;
  out.push_back({"default", base, {}});

  SeriesMatchOptions dc = base;
  dc.max_dc_offset = 0.3;
  out.push_back({"dc_offset", dc, {}});

  out.push_back({"penalty", base, over_ends([](std::size_t e) {
                   const double dev = static_cast<double>(e) - 100.0;
                   return 1e-6 * dev * dev;
                 })});

  out.push_back({"excluded_ends", base, over_ends([kInf](std::size_t e) {
                   return e % 3 != 1 ? 0.0 : kInf;
                 })});

  // With start stride 2, consecutive candidates of one length end two
  // samples apart, so excluding (e / 2) % 3 == 2 rejects every third
  // start offset in scan order: the four lanes of a batch span gaps, and
  // the DC shift routes each survivor through its own shifted-segment
  // row.
  const auto every_third = [kInf](std::size_t e) {
    return (e / 2) % 3 != 2 ? 0.0 : kInf;
  };
  out.push_back({"exclude_every_third+dc_offset", dc, over_ends(every_third)});

  // A penalty strong enough to move the winner off the pure-distance
  // minimum, on top of non-contiguous survivors.
  out.push_back({"penalty+exclude_every_third", base,
                 over_ends([every_third](std::size_t e) {
                   const double dev = static_cast<double>(e) - 300.0;
                   return every_third(e) + 1e-5 * dev * dev;
                 })});
  return out;
}

}  // namespace vihot::dsp
