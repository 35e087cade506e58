// Matcher option sets shared by the matcher-equivalence suite and the
// forced-dispatch gate: every code path that transforms the series
// (centering, DC shift) or scores candidates (bias, filter), including
// filters that leave non-contiguous survivors inside one DTW batch.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "dsp/series_match.h"

namespace vihot::dsp {

struct NamedOptions {
  const char* name;
  SeriesMatchOptions opt;
};

inline std::vector<NamedOptions> option_matrix() {
  std::vector<NamedOptions> out;
  SeriesMatchOptions base;
  base.dtw.band_fraction = 0.25;
  base.start_stride = 2;
  out.push_back({"default", base});

  SeriesMatchOptions centered = base;
  centered.mean_center = true;
  out.push_back({"mean_center", centered});

  SeriesMatchOptions dc = base;
  dc.max_dc_offset = 0.3;
  out.push_back({"dc_offset", dc});

  SeriesMatchOptions both = base;
  both.mean_center = true;
  both.max_dc_offset = 0.3;
  out.push_back({"mean_center+dc_offset", both});

  SeriesMatchOptions biased = base;
  biased.score_bias = [](std::size_t start, std::size_t) {
    const double dev = static_cast<double>(start) - 100.0;
    return 1e-6 * dev * dev;
  };
  out.push_back({"score_bias", biased});

  SeriesMatchOptions filtered = base;
  filtered.candidate_filter = [](std::size_t start, std::size_t) {
    return start % 3 != 1;
  };
  out.push_back({"candidate_filter", filtered});

  // Every third start offset in scan order is rejected, so the four
  // lanes of a batch span gaps; the DC shift routes each survivor
  // through its own shifted-segment row.
  SeriesMatchOptions every_third = base;
  every_third.max_dc_offset = 0.3;
  every_third.candidate_filter = [](std::size_t start, std::size_t) {
    return (start / 2) % 3 != 2;
  };
  out.push_back({"filter_every_third+dc_offset", every_third});

  // A bias on both start and length, strong enough to move the winner
  // off the pure-distance minimum, on top of non-contiguous survivors.
  SeriesMatchOptions length_biased = every_third;
  length_biased.max_dc_offset = 0.0;
  length_biased.score_bias = [](std::size_t start, std::size_t length) {
    const double dev = static_cast<double>(start) - 300.0;
    const double len_dev = static_cast<double>(length) - 30.0;
    return 1e-5 * dev * dev + 1e-3 * std::abs(len_dev);
  };
  out.push_back({"score_bias+filter_every_third", length_biased});
  return out;
}

}  // namespace vihot::dsp
