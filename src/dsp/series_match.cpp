#include "dsp/series_match.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dsp/simd.h"

namespace vihot::dsp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Pruning bars are inflated by this factor before any lower bound or
// abandon threshold is compared against them. Mathematically every bound
// used here is <= the true DTW distance, but the bound and the DTW sum
// accumulate in different orders, so their floating-point values can
// disagree by a few ulps; the inflation (orders of magnitude above the
// accumulated rounding of these ~1e2-term sums) keeps a candidate that
// the exact retention filter would keep from ever being pruned. This is
// what makes the pruned scan bit-identical to the unpruned one.
constexpr double kBarSlack = 1.0 + 1e-12;

double mean(std::span<const double> xs) noexcept {
  double sum = 0.0;
  for (const double v : xs) sum += v;
  return sum / static_cast<double>(xs.size());
}

// Candidate lengths spread evenly over [min_factor, max_factor] * W.
std::vector<std::size_t> candidate_lengths(std::size_t query_len,
                                           const SeriesMatchOptions& opt) {
  std::vector<std::size_t> lengths;
  const std::size_t n = std::max<std::size_t>(opt.num_lengths, 1);
  const double lo = std::max(opt.min_length_factor, 0.0);
  const double hi = std::max(opt.max_length_factor, lo);
  for (std::size_t k = 0; k < n; ++k) {
    const double f =
        (n == 1) ? lo
                 : lo + (hi - lo) * static_cast<double>(k) /
                           static_cast<double>(n - 1);
    const auto len = static_cast<std::size_t>(
        std::round(f * static_cast<double>(query_len)));
    if (len >= 2) lengths.push_back(len);
  }
  // Dedupe (small query lengths can collapse neighbors onto one value).
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  return lengths;
}

bool overlaps(std::size_t a_start, std::size_t a_len, std::size_t b_start,
              std::size_t b_len) noexcept {
  return a_start < b_start + b_len && b_start < a_start + a_len;
}

// The DC shift applied to the SEGMENT side before DTW: the level gap
// between the two means is absorbed up to the max_dc_offset cap. Folding
// the adjustment into the segment keeps the query fixed, which is what
// lets the query band envelope be computed once per candidate length:
//
//   cost term = q[i] - (s[j] - shift)
double seg_shift(const SeriesMatchOptions& opt, double qmean,
                 double smean) noexcept {
  if (opt.max_dc_offset > 0.0) {
    return std::clamp(smean - qmean, -opt.max_dc_offset, opt.max_dc_offset);
  }
  return 0.0;
}

// A non-empty end_penalty must cover the reference index for index.
bool penalty_fits(const SeriesMatchOptions& opt,
                  std::span<const double> reference) noexcept {
  return opt.end_penalty.empty() || opt.end_penalty.size() == reference.size();
}

// Normalized-distance retention bar: hits beyond it are filtered from
// the report, so candidates provably beyond it may be pruned without
// ever running DTW. Additive term per the runner_up_slack_abs docs.
double retention_bar(const SeriesMatchOptions& opt,
                     double best_score) noexcept {
  if (best_score == kInf) return kInf;
  return std::max(opt.runner_up_slack, 1.0) * best_score +
         std::max(opt.runner_up_slack_abs, 0.0);
}

// Everything a per-length scan needs, shared across the lengths of one
// call.
struct ScanContext {
  std::span<const double> query;
  std::span<const double> reference;
  const SeriesMatchOptions* opt = nullptr;
  double qmean = 0.0;
  std::size_t stride = 1;
  /// Running best score over the scan so far. It only ever decreases
  /// toward the final best, so any bar derived from it is >= the final
  /// retention bar — pruning can only remove candidates the final
  /// filter would drop, never a reported one.
  double best_score = kInf;
};

// Scans every start offset of one candidate length, appending to
// `ws.hits` and `stats`. `ws` is bound to ctx.reference and supplies the
// segment sums and the per-batch buffers.
//
// Candidates are scored in batches of up to kDtwBatchLanes: those that
// neither an infinite end_penalty excludes nor the lower-bound cascade
// prunes are gathered, then one dtw_banded_batch call scores them all.
// Every start offset of the length shares the query, the segment length
// and so the band geometry, and the pruning bar is read once per batch,
// before the gather, so a batch needs one geometry and one abandon bar. The bar a batch reads is
// never below the per-candidate bar it replaces (the running best only
// falls), so batching moves candidates between funnel buckets but never
// prunes one the final retention filter would keep (DESIGN.md §5j).
void scan_length(ScanContext& ctx, std::size_t len, MatchWorkspace& ws,
                 SeriesMatchStats& stats) {
  constexpr std::size_t kLanes = simd::kDtwBatchLanes;
  const SeriesMatchOptions& opt = *ctx.opt;
  const std::span<const double> q = ctx.query;
  const std::span<const double> reference = ctx.reference;
  if (len > reference.size()) return;

  const double scale = static_cast<double>(q.size() + len);
  const simd::KernelTable& kernels = simd::active();
  bool envelope_ready = false;

  DtwBatchBuffers& batch = ws.batch;
  batch.reset(q.size(), len);
  dtw_band_geometry(q.size(), len, dtw_band_cells(opt.dtw, q.size(), len),
                    batch.j_lo(), batch.j_hi());

  std::size_t start = 0;
  while (start + len <= reference.size()) {
    // Raw-distance pruning bar for this batch (inf until a first hit
    // exists). See kBarSlack for why it is inflated.
    const double stop_raw =
        retention_bar(opt, ctx.best_score) * kBarSlack * scale;

    std::size_t lane_start[kLanes];
    const double* lane_seg[kLanes];
    double lane_penalty[kLanes];
    std::size_t count = 0;
    for (; count < kLanes && start + len <= reference.size();
         start += ctx.stride) {
      const double pen =
          opt.end_penalty.empty() ? 0.0 : opt.end_penalty[start + len - 1];
      if (pen == kInf) continue;
      ++stats.candidates;

      const double smean =
          ws.segment_sum(start, len) / static_cast<double>(len);
      const double shift = seg_shift(opt, ctx.qmean, smean);

      // Lower-bound cascade, cheapest first. Stage 1: endpoints align in
      // every warp path (O(1)) — the shared dtw_endpoint_bound, the same
      // implementation dtw_lower_bound exposes.
      const double lb_end = dtw_endpoint_bound(
          q.front(), q.back(), reference[start] - shift,
          reference[start + len - 1] - shift, /*singleton=*/false);
      if (lb_end > stop_raw) {
        ++stats.lb_endpoint_pruned;
        continue;
      }

      // Effective segment for the kernel. shift == 0.0 is the common
      // no-adjustment case; x - 0.0 == x bitwise, so the raw span is the
      // same values without the copy.
      const double* seg = reference.data() + start;
      if (shift != 0.0) {
        double* shifted = batch.lane_segment(count);
        kernels.subtract_offset(seg, shift, shifted, len);
        seg = shifted;
      }

      // Stage 2: band-envelope bound (O(len), early-exiting).
      if (stop_raw < kInf) {
        if (!envelope_ready) {
          build_envelope(q, len, opt.dtw, ws.env_lo, ws.env_hi);
          envelope_ready = true;
        }
        if (kernels.band_lower_bound(seg, ws.env_lo.data() + 1,
                                     ws.env_hi.data() + 1, len,
                                     stop_raw) > stop_raw) {
          ++stats.lb_band_pruned;
          continue;
        }
      }
      lane_start[count] = start;
      lane_seg[count] = seg;
      lane_penalty[count] = pen;
      ++count;
    }
    if (count == 0) break;

    // Stage 3: the kernel itself, each lane abandoning once a DP row
    // proves its candidate beyond the bar (row minima only grow along
    // the DP).
    const double abandon_above =
        stop_raw < opt.dtw.abandon_above ? stop_raw : opt.dtw.abandon_above;
    double d_raw[kLanes];
    kernels.dtw_banded_batch(q.data(), q.size(), lane_seg, count, len,
                             batch.j_lo(), batch.j_hi(), abandon_above,
                             batch.scratch(), d_raw);

    // Hits land in start order, each scored and penalized in scan order.
    for (std::size_t l = 0; l < count; ++l) {
      if (d_raw[l] == kInf) {
        ++stats.dtw_abandoned;
        continue;
      }
      ++stats.dtw_evaluated;
      const double d = d_raw[l] / scale;
      const double score = d + lane_penalty[l];
      ws.hits.push_back({lane_start[l], len, d, score});
      ctx.best_score = std::min(ctx.best_score, score);
    }
  }
}

// Turns the raw hit list of a scan into the reported SeriesMatch. This
// runs identically for the fast and reference paths — the equivalence
// guarantee lives here: the winner is the first hit in scan order
// reaching the minimum score (the strict `<` running best of the naive
// loop), and the retention filter deterministically drops everything
// beyond the bar, which is exactly the set pruning was allowed to
// remove.
SeriesMatch finalize_scan(std::vector<MatchHit>& hits,
                          const SeriesMatchOptions& opt,
                          SeriesMatchStats stats) {
  SeriesMatch best;
  if (!hits.empty()) {
    std::size_t wi = 0;
    for (std::size_t i = 1; i < hits.size(); ++i) {
      if (hits[i].score < hits[wi].score) wi = i;
    }
    best.found = true;
    best.start = hits[wi].start;
    best.length = hits[wi].length;
    best.distance = hits[wi].distance;
    best.score = hits[wi].score;

    const double bar = retention_bar(opt, best.score);
    const auto kept =
        std::remove_if(hits.begin(), hits.end(),
                       [bar](const MatchHit& h) { return h.distance > bar; });
    stats.hits_filtered += static_cast<std::uint64_t>(hits.end() - kept);
    hits.erase(kept, hits.end());

    // Total order (distance, start, length): ties on distance must not
    // resolve differently between scan modes. (start, length) is unique
    // per hit, so the order is strict and a min-heap pops hits in exactly
    // the sorted order; only the few the greedy pick reaches are popped.
    const auto after = [](const MatchHit& a, const MatchHit& b) {
      if (a.distance != b.distance) return a.distance > b.distance;
      if (a.start != b.start) return a.start > b.start;
      return a.length > b.length;
    };
    std::make_heap(hits.begin(), hits.end(), after);

    // Greedy non-overlapping top-K by ascending distance.
    for (auto end = hits.end(); end != hits.begin(); --end) {
      if (best.top.size() >= std::max<std::size_t>(opt.top_k, 1)) break;
      std::pop_heap(hits.begin(), end, after);
      const MatchHit& h = *(end - 1);
      bool clash = false;
      for (const auto& c : best.top) {
        if (overlaps(h.start, h.length, c.start, c.length)) {
          clash = true;
          break;
        }
      }
      if (!clash) best.top.push_back({h.start, h.length, h.distance});
    }
    if (best.top.size() >= 2) {
      best.runner_up = best.top[1].distance;
      best.runner_up_start = best.top[1].start;
      best.runner_up_length = best.top[1].length;
    }
  }
  best.scan = stats;
  return best;
}

}  // namespace

// Every warp path visits every column at least once and only through
// in-band cells, so
//
//   sum_j interval_cost(seg[j], [env_lo[j], env_hi[j]])
//
// is a valid lower bound on the raw DTW distance (LB_Keogh-style).
// Built once per candidate length, amortized over all starts; the
// per-column min/max update runs through the dispatched kernel.
void build_envelope(std::span<const double> q, std::size_t m,
                    const DtwOptions& dtw, simd::AlignedVector& lo,
                    simd::AlignedVector& hi) {
  const std::size_t n = q.size();
  const std::size_t band = dtw_band_cells(dtw, n, m);
  const simd::KernelTable& kernels = simd::active();
  lo.assign(m + 1, kInf);
  hi.assign(m + 1, -kInf);
  for (std::size_t i = 1; i <= n; ++i) {
    const auto diag =
        static_cast<std::size_t>(static_cast<double>(i) *
                                 static_cast<double>(m) /
                                 static_cast<double>(n));
    const std::size_t j_lo =
        std::max<std::size_t>((diag > band) ? diag - band : 1, 1);
    const std::size_t j_hi = std::min(m, diag + band);
    kernels.envelope_update(q[i - 1], lo.data(), hi.data(), j_lo, j_hi);
  }
}

double band_lower_bound(std::span<const double> seg,
                        const simd::AlignedVector& lo,
                        const simd::AlignedVector& hi,
                        double stop_above) noexcept {
  // lo/hi are 1-based (m + 1 cells); the kernel works on the 0-based
  // column view.
  return simd::active().band_lower_bound(seg.data(), lo.data() + 1,
                                         hi.data() + 1, seg.size(),
                                         stop_above);
}

SeriesMatch find_best_match(std::span<const double> query,
                            std::span<const double> reference,
                            const SeriesMatchOptions& options,
                            MatchWorkspace& workspace) {
  if (query.size() < 2 || reference.size() < 2) return SeriesMatch{};
  if (!penalty_fits(options, reference)) return SeriesMatch{};
  const auto lengths = candidate_lengths(query.size(), options);
  if (lengths.empty()) return SeriesMatch{};

  workspace.bind(reference);
  ScanContext ctx;
  ctx.query = query;
  ctx.reference = reference;
  ctx.opt = &options;
  ctx.qmean = mean(query);
  ctx.stride = std::max<std::size_t>(options.start_stride, 1);

  SeriesMatchStats stats;
  workspace.hits.clear();
  for (const std::size_t len : lengths) {
    scan_length(ctx, len, workspace, stats);
  }
  return finalize_scan(workspace.hits, options, stats);
}

SeriesMatch find_best_match(std::span<const double> query,
                            std::span<const double> reference,
                            const SeriesMatchOptions& options) {
  thread_local MatchWorkspace workspace;
  return find_best_match(query, reference, options, workspace);
}

SeriesMatch find_best_match_reference(std::span<const double> query,
                                      std::span<const double> reference,
                                      const SeriesMatchOptions& options) {
  SeriesMatch best;
  if (query.size() < 2 || reference.size() < 2) return best;
  if (!penalty_fits(options, reference)) return best;
  const auto lengths = candidate_lengths(query.size(), options);
  if (lengths.empty()) return best;

  // Same mean arithmetic as the fast path (prefix-sum accumulation),
  // so both feed the kernel bit-identical inputs.
  std::vector<double> prefix;
  build_prefix_sums(reference, prefix);
  const double qmean = mean(query);

  const std::size_t stride = std::max<std::size_t>(options.start_stride, 1);
  std::vector<MatchHit> hits;
  SeriesMatchStats stats;
  for (const std::size_t len : lengths) {
    if (len > reference.size()) continue;
    const double scale = static_cast<double>(query.size() + len);
    for (std::size_t start = 0; start + len <= reference.size();
         start += stride) {
      const double pen =
          options.end_penalty.empty() ? 0.0
                                      : options.end_penalty[start + len - 1];
      if (pen == kInf) continue;
      ++stats.candidates;
      const double smean =
          (prefix[start + len] - prefix[start]) / static_cast<double>(len);
      const double shift = seg_shift(options, qmean, smean);
      std::vector<double> seg(len);
      for (std::size_t j = 0; j < len; ++j) {
        seg[j] = reference[start + j] - shift;
      }
      const double d_raw = dtw_distance(query, seg, options.dtw);
      if (d_raw == kInf) {
        ++stats.dtw_abandoned;
        continue;
      }
      ++stats.dtw_evaluated;
      const double d = d_raw / scale;
      hits.push_back({start, len, d, d + pen});
    }
  }
  return finalize_scan(hits, options, stats);
}

}  // namespace vihot::dsp
