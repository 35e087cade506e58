// Reusable scratch state for the segment-search hot loop.
//
// Algorithm 1 evaluates ~num_lengths * (ref_len / stride) candidate
// segments per neighbor slot, and the naive scan pays an allocation plus
// an O(len) mean computation for every one of them. MatchWorkspace
// hoists all of that out of the loop:
//
//   * prefix sums over the reference make any segment mean O(1);
//   * the candidate scratch (shifted segments, query envelope, batched
//     DTW scratch, hit list) lives in buffers that keep their capacity across
//     candidates, scans, and estimates — the steady state allocates
//     nothing. The double buffers are 32-byte aligned (simd.h) so the
//     dispatched kernels stream them from vector-register boundaries.
//
// One workspace serves one scan at a time; distinct threads use distinct
// workspaces (find_best_match keeps a thread_local one for callers that
// do not pass their own).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/simd.h"

namespace vihot::dsp {

/// One surviving candidate of a segment scan: distance is the normalized
/// DTW distance, score is distance + the candidate's score_bias.
struct MatchHit {
  std::size_t start = 0;
  std::size_t length = 0;
  double distance = 0.0;
  double score = 0.0;
};

/// Appends-free prefix sums: out[k] = xs[0] + ... + xs[k-1], out[0] = 0,
/// accumulated left to right. Both the fast and the reference matcher
/// paths derive segment means from this exact accumulation, which keeps
/// their floating-point results bit-identical. Deliberately NOT in the
/// SIMD kernel table: a strict left-fold has a loop-carried dependency,
/// and any lane-parallel formulation would reassociate the sum and break
/// the bit contract (see DESIGN.md §5j).
void build_prefix_sums(std::span<const double> xs, std::vector<double>& out);

/// Scratch for the lane-batched DTW of one candidate length: the
/// kernel's simd::DtwBatchScratch, the band geometry every start offset
/// of the length shares, and one shifted-segment row per lane, all
/// carved from one 32-byte-aligned block. It grows monotonically and
/// leans on the kernels' all-infinity row invariant, so steady-state
/// batches neither allocate nor refill.
class DtwBatchBuffers {
 public:
  /// Ensure capacity for (n, m) batches: a stride >= max(n, m) + 1 and
  /// geometry arrays of n + 1 entries.
  void reset(std::size_t n, std::size_t m);

  /// Kernel scratch view; valid until a growing reset().
  [[nodiscard]] simd::DtwBatchScratch scratch() noexcept {
    double* base = block_.data();
    return simd::DtwBatchScratch{base, base + 2 * kLanes * stride_, stride_};
  }

  /// Segment row of `lane` (m cells), for candidates whose DC shift
  /// makes the raw reference span unusable.
  [[nodiscard]] double* lane_segment(std::size_t lane) noexcept {
    return block_.data() + (3 * kLanes + lane) * stride_;
  }

  /// Per-row band columns, indexed [1, n] (cell 0 unused).
  [[nodiscard]] std::size_t* j_lo() noexcept { return jlo_.data(); }
  [[nodiscard]] std::size_t* j_hi() noexcept { return jhi_.data(); }

 private:
  static constexpr std::size_t kLanes = simd::kDtwBatchLanes;
  simd::AlignedVector block_;  ///< rows | transpose block | lane segments
  std::vector<std::size_t> jlo_;
  std::vector<std::size_t> jhi_;
  std::size_t stride_ = 0;
};

/// Scratch buffers for one segment scan (see file comment).
class MatchWorkspace {
 public:
  /// (Re)binds the workspace to a reference series: rebuilds the prefix
  /// sums. O(reference length); call once per find_best_match call.
  void bind(std::span<const double> reference);

  /// Sum of reference[start, start + length) from the prefix sums.
  [[nodiscard]] double segment_sum(std::size_t start,
                                   std::size_t length) const noexcept {
    return prefix_[start + length] - prefix_[start];
  }

  [[nodiscard]] const std::vector<double>& prefix() const noexcept {
    return prefix_;
  }

  // Per-scan scratch. Members are cleared/overwritten by the scan; they
  // are public because the scan loop in series_match.cpp is the only
  // intended writer.
  simd::AlignedVector query_eff;  ///< mean-centered query (when enabled)
  simd::AlignedVector env_lo;     ///< per-column query envelope minimum
  simd::AlignedVector env_hi;     ///< per-column query envelope maximum
  DtwBatchBuffers batch;          ///< lane-batched DTW scratch
  std::vector<MatchHit> hits;     ///< surviving candidates of the scan

 private:
  std::vector<double> prefix_;
};

}  // namespace vihot::dsp
