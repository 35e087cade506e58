// Sliding best-match search of a query window inside a long reference
// series — the computational kernel of ViHOT's Algorithm 1 (Sec. 3.4.5):
//
//   for all candidate lengths Ln in [0.5W, 2W] (step dL)
//     for all start offsets tau_j in the profile
//       d = DTW(query, profile[tau_j, tau_j + Ln])
//   return the segment with minimum d
//
// The search is exhaustive over a configurable stride grid. The fast path
// always prunes candidates through a cascaded lower-bound chain (endpoint
// bound, then a band-envelope bound) and abandons hopeless DTW
// evaluations early — while returning bit-identical best/runner-up/top-K
// results to the unpruned find_best_match_reference (see DESIGN.md
// "Matcher pruning invariants"): pruning only ever removes candidates
// that the retention bar
//
//   distance <= runner_up_slack * best_score + runner_up_slack_abs
//
// would discard from the report anyway, and the winner always clears
// that bar. The options are plain data; the only per-candidate input
// beyond the two series is end_penalty, indexed by the candidate's last
// sample.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dsp/dtw.h"
#include "dsp/match_workspace.h"

namespace vihot::dsp {

/// Tuning knobs for the segment search.
struct SeriesMatchOptions {
  /// Candidate-length range as factors of the query length (the paper uses
  /// [0.5, 2.0], Sec. 3.4.4).
  double min_length_factor = 0.5;
  double max_length_factor = 2.0;

  /// Number of candidate lengths enumerated across the range (the paper's
  /// step dL). Must be >= 1.
  std::size_t num_lengths = 7;

  /// Start-offset stride in reference samples; 1 is exhaustive.
  std::size_t start_stride = 2;

  /// Tolerated DC offset between query and candidate (same units as the
  /// series), computed from the means of both sides. Level differences up
  /// to this cap are absorbed before DTW; any residual beyond the cap
  /// stays in the cost. A small value absorbs the curve offset caused by
  /// the head sitting *between* two profiled positions, while still
  /// rejecting far-away branches whose level differs by more. 0 disables
  /// the adjustment.
  double max_dc_offset = 0.0;

  /// Retention bar: candidates with normalized distance within
  /// runner_up_slack * best_score + runner_up_slack_abs survive into the
  /// runner-up / top-K report; everything beyond is pruned when a lower
  /// bound proves it, abandoned mid-DTW when a DP row does, and filtered
  /// from the report even when evaluated. The additive term keeps the
  /// report meaningful when the best score is ~0 (exact match), where a
  /// purely multiplicative bar would starve the runner-up.
  double runner_up_slack = 4.0;
  double runner_up_slack_abs = 0.05;

  /// How many mutually non-overlapping top candidates to report.
  std::size_t top_k = 4;

  /// DTW options; `abandon_above` is tightened internally per batch.
  DtwOptions dtw{};

  /// Optional score penalty, one value per reference sample: a candidate
  /// ending at index e scores distance + end_penalty[e], and +inf
  /// excludes it before it is counted or costs DTW work. Empty means no
  /// penalty; any other size than the reference's makes the scan return
  /// found == false. ViHOT's continuity hint (OrientationEstimator) is
  /// +inf beyond the hard hint's reach plus the soft prior's quadratic
  /// penalty on the angular jump, which breaks twin-branch near-ties.
  std::span<const double> end_penalty;
};

/// Where the candidates of one scan went — the prune funnel. Every
/// candidate not excluded by an infinite end_penalty lands in exactly one
/// of the pruned/abandoned/evaluated buckets. The scan scores candidates in
/// batches of simd::kDtwBatchLanes and reads the pruning bar once per
/// batch, so which bucket a candidate lands in depends on the batch
/// boundaries (a function of the inputs, identical for every kernel
/// table and thread count), while the reported match does not.
struct SeriesMatchStats {
  std::uint64_t candidates = 0;         ///< candidates not excluded
  std::uint64_t lb_endpoint_pruned = 0; ///< cut by the O(1) endpoint bound
  std::uint64_t lb_band_pruned = 0;     ///< cut by the band-envelope bound
  std::uint64_t dtw_abandoned = 0;      ///< DTW started but returned inf
  std::uint64_t dtw_evaluated = 0;      ///< DTW completed with a finite d
  std::uint64_t hits_filtered = 0;      ///< hits beyond the retention bar

  void add(const SeriesMatchStats& other) noexcept {
    candidates += other.candidates;
    lb_endpoint_pruned += other.lb_endpoint_pruned;
    lb_band_pruned += other.lb_band_pruned;
    dtw_abandoned += other.dtw_abandoned;
    dtw_evaluated += other.dtw_evaluated;
    hits_filtered += other.hits_filtered;
  }
};

/// Outcome of a segment search.
struct SeriesMatch {
  bool found = false;
  std::size_t start = 0;   ///< start index in the reference
  std::size_t length = 0;  ///< matched segment length, in samples
  double distance = std::numeric_limits<double>::infinity();
  /// distance + end_penalty of the winner (== distance when no penalty).
  double score = std::numeric_limits<double>::infinity();
  /// Best match that does NOT overlap the winner; gauges ambiguity
  /// (close second => the phase window was not discriminative, the
  /// failure mode behind slow-turn errors in Fig. 13c) and supports
  /// tie-breaking between twin branches.
  double runner_up = std::numeric_limits<double>::infinity();
  std::size_t runner_up_start = 0;
  std::size_t runner_up_length = 0;

  /// Top candidates within the retention bar (ascending distance),
  /// mutually non-overlapping. Size bounded by SeriesMatchOptions::top_k.
  struct Candidate {
    std::size_t start = 0;
    std::size_t length = 0;
    double distance = std::numeric_limits<double>::infinity();
    [[nodiscard]] std::size_t end() const noexcept { return start + length; }
  };
  std::vector<Candidate> top;

  /// Prune funnel of this scan (how the result was reached).
  SeriesMatchStats scan;

  /// End index (exclusive) in the reference.
  [[nodiscard]] std::size_t end() const noexcept { return start + length; }
};

/// Finds the best-matching segment of `reference` for `query` under DTW.
/// Returns found == false when the reference is shorter than the smallest
/// candidate, either series is empty, or a non-empty end_penalty does not
/// have one entry per reference sample. Uses an internal thread_local
/// MatchWorkspace, so repeated calls from one thread are allocation-free
/// in the steady state.
[[nodiscard]] SeriesMatch find_best_match(
    std::span<const double> query, std::span<const double> reference,
    const SeriesMatchOptions& options = {});

/// Same, with a caller-owned workspace (one workspace per concurrent
/// caller).
[[nodiscard]] SeriesMatch find_best_match(std::span<const double> query,
                                          std::span<const double> reference,
                                          const SeriesMatchOptions& options,
                                          MatchWorkspace& workspace);

/// Reference implementation: the same scan with no pruning, no early
/// abandoning, no scratch reuse, and per-candidate allocations. Exists to
/// pin the fast path down — the matcher-equivalence tests assert both
/// return bit-identical results. It scores every candidate with
/// dtw_distance, the scalar row-major kernel, whichever kernel table is
/// active, so those tests hold the dispatched batch kernel to the scalar
/// contract. It reads end_penalty exactly as the fast path does.
[[nodiscard]] SeriesMatch find_best_match_reference(
    std::span<const double> query, std::span<const double> reference,
    const SeriesMatchOptions& options = {});

/// (Exposed for the property tests.) Per-column min/max of the query over
/// the rows the Sakoe-Chiba band lets visit that column, mirroring the
/// DTW kernel's exact geometry via dtw_band_cells. lo/hi get m + 1 cells
/// (1-based columns; cell 0 unused). Columns no row can reach keep
/// lo = +inf / hi = -inf, making their interval cost infinite.
void build_envelope(std::span<const double> q, std::size_t m,
                    const DtwOptions& dtw, simd::AlignedVector& lo,
                    simd::AlignedVector& hi);

/// (Exposed for the property tests.) Envelope lower bound on the RAW DTW
/// distance of (query, seg) against a build_envelope result, with blocked
/// early exit once the partial sum exceeds `stop_above`. Guaranteed
/// `<= dtw_distance(query, seg, dtw)` when the envelope was built for
/// the same query/length/band geometry.
[[nodiscard]] double band_lower_bound(std::span<const double> seg,
                                      const simd::AlignedVector& lo,
                                      const simd::AlignedVector& hi,
                                      double stop_above) noexcept;

}  // namespace vihot::dsp
