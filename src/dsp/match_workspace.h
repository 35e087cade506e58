// Reusable scratch state for the segment search.
//
// Algorithm 1 weighs ~num_lengths * (ref_len / stride) candidate segments
// per neighbor slot. MatchWorkspace keeps everything the search needs
// per candidate in buffers that keep their capacity across searches:
//
//   * prefix sums over the reference make any segment mean O(1);
//   * one compact record per candidate (its bound and how it was
//     obtained), grouped by candidate length, each group a min-heap;
//   * the per-length query envelopes, the batched DTW scratch and the
//     shifted-segment rows. The double buffers are 32-byte aligned
//     (simd.h) so the dispatched kernels stream them from vector-register
//     boundaries.
//
// One workspace serves one search at a time; distinct threads use
// distinct workspaces (find_best_match keeps a thread_local one for
// callers that do not pass their own).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/simd.h"

namespace vihot::dsp {

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

/// One candidate segment of the search: 16 bytes, one per candidate.
struct MatchCandidate {
  /// Lower bound on the candidate's normalized DTW distance, tightened
  /// as the search learns more; the exact distance once `state` says so.
  double bound = 0.0;
  std::uint32_t start = 0;         ///< start index in the reference
  std::uint16_t length_index = 0;  ///< index into MatchWorkspace::lengths
  std::uint8_t state = 0;          ///< how `bound` was obtained
};

/// One candidate length of the search and its group of records.
struct MatchLength {
  std::size_t length = 0;
  double scale = 0.0;  ///< query length + length: the distance normalizer
  /// The length's records live in candidates[first, first + capacity):
  /// a min-heap prefix of heap_size records in the current round's order
  /// and a tail of `pending` records no round has needed yet.
  std::size_t first = 0;
  std::size_t capacity = 0;
  std::size_t heap_size = 0;
  std::size_t pending = 0;
  /// end_penalty viewed from the length's end sample (start indexes it),
  /// or nullptr when the search has no penalty.
  const double* end_penalty = nullptr;
  std::size_t envelope = 0;  ///< offset of the envelope in env_lo/env_hi
  bool envelope_ready = false;
};

/// Scratch buffers for one segment search (see file comment).
class MatchWorkspace {
 public:
  /// (Re)binds the workspace to a reference series: rebuilds the prefix
  /// sums. O(reference length); only the DC-offset adjustment reads them.
  void bind(std::span<const double> reference);

  /// Sum of reference[start, start + length) from the prefix sums.
  [[nodiscard]] double segment_sum(std::size_t start,
                                   std::size_t length) const noexcept {
    return prefix_[start + length] - prefix_[start];
  }

  [[nodiscard]] const std::vector<double>& prefix() const noexcept {
    return prefix_;
  }

  // Per-search scratch. Members are cleared/overwritten by the search;
  // they are public because the search in series_match.cpp is the only
  // intended writer.
  std::vector<MatchLength> lengths;        ///< candidate lengths, ascending
  std::vector<MatchCandidate> candidates;  ///< per-length record groups
  std::vector<MatchCandidate> parked;      ///< popped, due back in a heap
  simd::AlignedVector env_lo;  ///< per-length query envelope minimum
  simd::AlignedVector env_hi;  ///< per-length query envelope maximum
  DtwBatchBuffers batch;       ///< lane-batched DTW scratch

 private:
  std::vector<double> prefix_;
};

}  // namespace vihot::dsp
