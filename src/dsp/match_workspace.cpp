#include "dsp/match_workspace.h"

#include <algorithm>
#include <limits>

namespace vihot::dsp {

void build_prefix_sums(std::span<const double> xs, std::vector<double>& out) {
  out.resize(xs.size() + 1);
  out[0] = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i + 1] = out[i] + xs[i];
  }
}

void DtwBatchBuffers::reset(std::size_t n, std::size_t m) {
  const std::size_t cells = std::max(n, m) + 1;
  const std::size_t stride = (cells + 3) & ~std::size_t{3};
  if (stride > stride_) {
    // Growing moves every region boundary, so the rows need a full
    // +infinity refill here, and only here.
    stride_ = stride;
    block_.assign(4 * kLanes * stride_,
                  std::numeric_limits<double>::infinity());
  }
  if (jlo_.size() < n + 1) {
    jlo_.resize(n + 1);
    jhi_.resize(n + 1);
  }
}

void MatchWorkspace::bind(std::span<const double> reference) {
  build_prefix_sums(reference, prefix_);
}

}  // namespace vihot::dsp
