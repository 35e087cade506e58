#include "dsp/series_match.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "dsp/simd.h"

namespace vihot::dsp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The band-envelope bound is <= the true DTW distance mathematically, but
// it and the DTW sum accumulate in different orders, so their
// floating-point values can disagree by a few ulps. The search compares
// the bound against its bar inflated by this factor, and deflates the
// bound by it before it stands for a distance; the factor is orders of
// magnitude above the accumulated rounding of these ~1e2-term sums, so
// no candidate that could enter the report is ever skipped.
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

// Normalized-distance retention bar: candidates beyond it cannot enter
// the top-K report. Additive term per the runner_up_slack_abs docs.
double retention_bar(const SeriesMatchOptions& opt,
                     double best_score) noexcept {
  if (best_score == kInf) return kInf;
  return std::max(opt.runner_up_slack, 1.0) * best_score +
         std::max(opt.runner_up_slack_abs, 0.0);
}

// One scored candidate of the reference scan: distance is the normalized
// DTW distance, score is distance + the end_penalty at its last sample.
struct MatchHit {
  std::size_t start = 0;
  std::size_t length = 0;
  double distance = 0.0;
  double score = 0.0;
};

// Every warp path visits every column at least once and only through
// in-band cells, so
//
//   sum_j interval_cost(seg[j], [lo[j], hi[j]])
//
// is a valid lower bound on the raw DTW distance (LB_Keogh-style). Fills
// the m + 1 cells of lo/hi (1-based columns) for one candidate length;
// the per-column min/max update runs through the dispatched kernel.
void fill_envelope(std::span<const double> q, std::size_t m,
                   const DtwOptions& dtw, double* lo, double* hi) {
  const std::size_t n = q.size();
  const std::size_t band = dtw_band_cells(dtw, n, m);
  const simd::KernelTable& kernels = simd::active();
  std::fill(lo, lo + m + 1, kInf);
  std::fill(hi, hi + m + 1, -kInf);
  for (std::size_t i = 1; i <= n; ++i) {
    const auto diag =
        static_cast<std::size_t>(static_cast<double>(i) *
                                 static_cast<double>(m) /
                                 static_cast<double>(n));
    const std::size_t j_lo =
        std::max<std::size_t>((diag > band) ? diag - band : 1, 1);
    const std::size_t j_hi = std::min(m, diag + band);
    kernels.envelope_update(q[i - 1], lo, hi, j_lo, j_hi);
  }
}

// Lower bound on a candidate's raw DTW distance above which it provably
// keys above `target`: fl(fl(cap / scale) + penalty) > target, so by the
// monotonicity of rounding every raw distance beyond cap scores (penalty
// included) above the target, and abandoning a DTW at cap, or skipping a
// candidate whose bound exceeds it, can change no round. The estimate
// (target - penalty) * scale is nudged up until the test passes, so the
// guarantee is checked, not derived; it is exact for any finite inputs.
double raw_cap(double target, double penalty, double scale) noexcept {
  if (target == kInf) return kInf;
  double cap = std::max((target - penalty) * scale, 0.0);
  double step = std::max((std::abs(target) + penalty) * scale * 0x1p-50,
                         std::numeric_limits<double>::denorm_min());
  while (!(cap / scale + penalty > target)) {
    cap += step;
    step *= 2.0;
  }
  return cap;
}

// What a candidate record's bound is. A search moves each record forward
// through these, except kAbandoned, which a later round with a higher
// bar may re-score.
enum CandidateState : std::uint8_t {
  kEndpoint,   // the O(1) endpoint bound
  kBand,       // the band-envelope bound
  kAbandoned,  // a DTW abandon bar the distance exceeds
  kExact,      // the exact distance
  kDead,       // abandoned under options.dtw.abandon_above: never a hit
  kStateCount
};

// Key histogram buckets: a quarter octave each from 2^-40 up, bucket 0
// below, the last one open-ended. Bucket order is key order, and every
// key in bucket b is >= bucket_floor(b).
constexpr std::size_t kBuckets = 256;
constexpr int kBucketShift = 50;  // keeps exponent + 2 mantissa bits
constexpr double kBucketMin = 0x1p-40;
constexpr std::uint64_t kBucketBase =
    std::bit_cast<std::uint64_t>(kBucketMin) >> kBucketShift;

std::size_t bucket_of(double key) noexcept {
  if (!(key >= kBucketMin)) return 0;
  const std::uint64_t b =
      (std::bit_cast<std::uint64_t>(key) >> kBucketShift) - kBucketBase + 1;
  return b < kBuckets ? static_cast<std::size_t>(b) : kBuckets - 1;
}

double bucket_floor(std::size_t b) noexcept {
  if (b == 0) return 0.0;
  return std::bit_cast<double>((kBucketBase + b - 1) << kBucketShift);
}

// The bound-ordered search behind find_best_match (DESIGN.md "Matcher
// pruning invariants"). It runs in rounds: the winner round finds the
// minimum score, each pick round the next top-K pick. A round repeatedly
// takes the record with the least key while that key is within the
// round's cap (the best value found so far, or the round's bar until one
// is found). A key is a lower bound on what the round orders by: bound +
// end penalty (the score) in the winner round, bound alone (the
// distance) in the pick rounds. A record taken out is
//   * weighed as a result when its distance is exact;
//   * given its band bound and put back when it has only its endpoint
//     bound;
//   * otherwise DTW-scored, with up to kDtwBatchLanes - 1 more records of
//     its length whose keys are within the cap, in one kernel call.
// Each length keeps its records in one group: a min-heap prefix of the
// records admitted so far, and a pending tail the rounds have not needed
// yet, counted in a key histogram. A round admits pending records bucket
// by bucket, in growing chunks, only once the heaps' least key reaches
// the pending floor, so the records no round needs are never ordered.
// Records a round takes out go back when it ends, so exact distances and
// abandon bars carry over to the next round.
class BestFirstSearch {
 public:
  BestFirstSearch(std::span<const double> query,
                  std::span<const double> reference,
                  const SeriesMatchOptions& opt, MatchWorkspace& ws)
      : q_(query),
        ref_(reference),
        opt_(opt),
        ws_(ws),
        kernels_(simd::active()),
        qmean_(mean(query)) {}

  // Builds the records; false when there is no length the reference can
  // hold.
  bool init(const std::vector<std::size_t>& lengths);

  SeriesMatch run();

 private:
  static constexpr std::size_t kLanes = simd::kDtwBatchLanes;
  // Records a round's first admission asks for; each further admission
  // in the round doubles it.
  static constexpr std::size_t kFirstAdmission = 64;

  // The best record of one round: value is its score in the winner round
  // and its distance in the pick rounds.
  struct Best {
    bool found = false;
    double value = kInf;
    MatchCandidate record{};
  };

  [[nodiscard]] MatchLength& length_of(const MatchCandidate& c) noexcept {
    return ws_.lengths[c.length_index];
  }
  // The end penalty the current round adds to a distance: the score's in
  // the winner round, none in the pick rounds.
  [[nodiscard]] double penalty(const MatchCandidate& c) const noexcept {
    const double* pen = ws_.lengths[c.length_index].end_penalty;
    return winner_round_ && pen != nullptr ? pen[c.start] : 0.0;
  }
  [[nodiscard]] double key(const MatchCandidate& c) const noexcept {
    return c.bound + penalty(c);
  }
  // Min-heap order of one length's records in the current round.
  [[nodiscard]] auto later(const MatchLength& len) const noexcept {
    const double* pen = winner_round_ ? len.end_penalty : nullptr;
    return [pen](const MatchCandidate& a, const MatchCandidate& b) {
      if (pen == nullptr) return a.bound > b.bound;
      return a.bound + pen[a.start] > b.bound + pen[b.start];
    };
  }
  // The DC shift of a candidate's segment (seg_shift), from the prefix
  // sums that init() builds only when the adjustment is on.
  [[nodiscard]] double shift_of(std::size_t start,
                                std::size_t len) const noexcept {
    if (opt_.max_dc_offset <= 0.0) return 0.0;
    return seg_shift(
        opt_, qmean_,
        ws_.segment_sum(start, len) / static_cast<double>(len));
  }

  MatchCandidate pop(MatchLength& len);
  void push(const MatchCandidate& c);
  void set_state(MatchCandidate& c, std::uint8_t state) noexcept {
    --counts_[c.state];
    ++counts_[state];
    c.state = state;
  }

  [[nodiscard]] double pending_floor() noexcept;
  void admit(double cap);
  void refile_for_picks();

  bool round(double target, Best& best);
  void restore_parked();
  void score_batch(MatchLength& len, const MatchCandidate& first,
                   const double* first_seg, double target, Best& best);
  bool band_bound(MatchCandidate& c, const double* seg, double cap);
  const double* segment(const MatchCandidate& c, std::size_t row);
  void consider(const MatchCandidate& c, double target, Best& best) const;
  [[nodiscard]] bool out_of_picks(const MatchCandidate& c) const noexcept;

  std::span<const double> q_;
  std::span<const double> ref_;
  const SeriesMatchOptions& opt_;
  MatchWorkspace& ws_;
  const simd::KernelTable& kernels_;
  double qmean_;
  bool winner_round_ = true;
  double retention_bar_ = kInf;  // finite once the winner round is done
  SeriesMatch out_;
  std::uint64_t counts_[kStateCount] = {};
  std::uint32_t pending_[kBuckets] = {};  // pending records per key bucket
  std::size_t lowest_ = 0;  // no pending record sits in a lower bucket
  std::size_t admission_ = kFirstAdmission;
};

bool BestFirstSearch::init(const std::vector<std::size_t>& lengths) {
  const std::size_t stride = std::max<std::size_t>(opt_.start_stride, 1);
  ws_.lengths.clear();
  std::size_t records = 0;
  std::size_t envelope = 0;
  std::size_t longest = 0;
  for (const std::size_t len : lengths) {
    if (len > ref_.size()) continue;
    MatchLength l;
    l.length = len;
    l.scale = static_cast<double>(q_.size() + len);
    l.first = records;
    l.capacity = (ref_.size() - len) / stride + 1;
    l.envelope = envelope;
    ws_.lengths.push_back(l);
    records += l.capacity;
    envelope += len + 1;
    longest = len;
  }
  if (ws_.lengths.empty()) return false;
  if (ws_.candidates.size() < records) ws_.candidates.resize(records);
  if (ws_.env_lo.size() < envelope) {
    ws_.env_lo.resize(envelope);
    ws_.env_hi.resize(envelope);
  }
  ws_.batch.reset(q_.size(), longest);
  ws_.parked.clear();
  if (opt_.max_dc_offset > 0.0) ws_.bind(ref_);

  // Stage 1 for every candidate: endpoints align in every warp path. The
  // bound is the cost of the DP's first and last cells, which the DTW sum
  // contains and only grows past, so it needs no slack; it is normalized
  // by a factor below 1 / scale, so by the monotonicity of rounding it
  // stays below fl(bound / scale) without paying a division. Each length's
  // records fill its group from the back: all start out pending. A length
  // keeps its penalty view only if some finite penalty of its candidates
  // is nonzero (a hard continuity hint alone is all 0 or inf).
  const double q_front = q_.front();
  const double q_back = q_.back();
  const bool dc = opt_.max_dc_offset > 0.0;
  for (std::size_t k = 0; k < ws_.lengths.size(); ++k) {
    MatchLength& l = ws_.lengths[k];
    const std::size_t len = l.length;
    const double below_inverse = std::nextafter(1.0 / l.scale, 0.0);
    const double* pen =
        opt_.end_penalty.empty() ? nullptr : &opt_.end_penalty[len - 1];
    const double* ref = ref_.data();
    bool penalized = false;
    MatchCandidate* slot = ws_.candidates.data() + l.first + l.capacity;
    for (std::size_t start = 0; start + len <= ref_.size(); start += stride) {
      double p = 0.0;
      if (pen != nullptr) {
        p = pen[start];
        if (p == kInf) continue;
        penalized = penalized || p != 0.0;
      }
      const double shift = dc ? shift_of(start, len) : 0.0;
      MatchCandidate c;
      c.bound = dtw_endpoint_bound(q_front, q_back, ref[start] - shift,
                                   ref[start + len - 1] - shift,
                                   /*singleton=*/false) *
                below_inverse;
      c.start = static_cast<std::uint32_t>(start);
      c.length_index = static_cast<std::uint16_t>(k);
      c.state = kEndpoint;
      *--slot = c;
      ++pending_[bucket_of(c.bound + p)];
    }
    l.pending = static_cast<std::size_t>(
        ws_.candidates.data() + l.first + l.capacity - slot);
    l.heap_size = 0;
    l.end_penalty = penalized ? pen : nullptr;
    l.envelope_ready = false;
    counts_[kEndpoint] += l.pending;
  }
  return true;
}

MatchCandidate BestFirstSearch::pop(MatchLength& len) {
  MatchCandidate* heap = &ws_.candidates[len.first];
  std::pop_heap(heap, heap + len.heap_size, later(len));
  return heap[--len.heap_size];
}

void BestFirstSearch::push(const MatchCandidate& c) {
  MatchLength& len = length_of(c);
  MatchCandidate* heap = &ws_.candidates[len.first];
  heap[len.heap_size++] = c;
  std::push_heap(heap, heap + len.heap_size, later(len));
}

// Lower bound on every pending key; lowest_ == kBuckets once none is.
double BestFirstSearch::pending_floor() noexcept {
  while (lowest_ < kBuckets && pending_[lowest_] == 0) ++lowest_;
  return lowest_ < kBuckets ? bucket_floor(lowest_) : kInf;
}

// Moves the pending records of the lowest buckets, at least the current
// admission size of them if the cap's bucket allows, into their heaps.
// Records of buckets beyond the cap's are not needed by this round.
void BestFirstSearch::admit(double cap) {
  const std::size_t cap_bucket = bucket_of(cap);
  std::size_t last = lowest_;
  std::size_t count = pending_[last];
  while (count < admission_ && last < cap_bucket) count += pending_[++last];
  admission_ *= 2;
  for (MatchLength& len : ws_.lengths) {
    MatchCandidate* group = &ws_.candidates[len.first];
    MatchCandidate* tail = group + len.capacity - len.pending;
    MatchCandidate* end = group + len.capacity;
    MatchCandidate* rest = std::partition(
        tail, end,
        [&](const MatchCandidate& c) { return bucket_of(key(c)) <= last; });
    const std::size_t n = static_cast<std::size_t>(rest - tail);
    if (n == 0) continue;
    // The heap ends at or before the pending tail, so a forward copy is
    // safe even where the two ranges overlap.
    MatchCandidate* heap_end = std::copy(tail, rest, group + len.heap_size);
    len.pending -= n;
    for (const MatchCandidate* c = group + len.heap_size; c != heap_end;
         ++c) {
      --pending_[bucket_of(key(*c))];
    }
    const std::size_t before = len.heap_size;
    len.heap_size += n;
    if (n > before) {
      std::make_heap(group, heap_end, later(len));
    } else {
      for (std::size_t i = before + 1; i <= len.heap_size; ++i) {
        std::push_heap(group, group + i, later(len));
      }
    }
  }
}

// The pick rounds key records by bound alone. A length whose winner-round
// keys added a penalty files every record back as pending under its new
// key, dropping those beyond the retention bar (they can enter no pick).
// Lengths without a penalty keep their heaps and histogram entries as
// they are: their keys do not change.
void BestFirstSearch::refile_for_picks() {
  for (MatchLength& len : ws_.lengths) {
    if (len.end_penalty == nullptr) continue;
    MatchCandidate* group = &ws_.candidates[len.first];
    // Both passes walk down and write down from the group's end; a record
    // is always read before its slot is written.
    std::size_t w = len.capacity;
    const auto refile = [&](const MatchCandidate& c) {
      if (c.bound > retention_bar_) return;
      group[--w] = c;
      ++pending_[bucket_of(c.bound)];
    };
    for (std::size_t i = len.capacity; i > len.capacity - len.pending; --i) {
      const MatchCandidate c = group[i - 1];
      --pending_[bucket_of(c.bound + len.end_penalty[c.start])];
      refile(c);
    }
    for (std::size_t i = len.heap_size; i > 0; --i) refile(group[i - 1]);
    len.heap_size = 0;
    len.pending = len.capacity - w;
  }
  lowest_ = 0;
}

// The segment the kernels see: the raw reference span, or its DC-shifted
// copy in the batch's lane row `row`. shift == 0.0 is the common
// no-adjustment case; x - 0.0 == x bitwise, so the raw span is the same
// values without the copy.
const double* BestFirstSearch::segment(const MatchCandidate& c,
                                       std::size_t row) {
  const std::size_t len = ws_.lengths[c.length_index].length;
  const double* seg = ref_.data() + c.start;
  const double shift = shift_of(c.start, len);
  if (shift == 0.0) return seg;
  double* shifted = ws_.batch.lane_segment(row);
  kernels_.subtract_offset(seg, shift, shifted, len);
  return shifted;
}

// Stage 2: the band-envelope bound (O(length), early-exiting). Returns
// false when it proves the candidate keys above `cap`. The bound and the
// DTW sum accumulate in different orders, so the bound is deflated by
// kBarSlack before it may stand for the distance.
bool BestFirstSearch::band_bound(MatchCandidate& c, const double* seg,
                                 double cap) {
  MatchLength& len = length_of(c);
  double* lo = ws_.env_lo.data() + len.envelope;
  double* hi = ws_.env_hi.data() + len.envelope;
  if (!len.envelope_ready) {
    fill_envelope(q_, len.length, opt_.dtw, lo, hi);
    len.envelope_ready = true;
  }
  const double stop = raw_cap(cap, penalty(c), len.scale) * kBarSlack;
  const double b =
      kernels_.band_lower_bound(seg, lo + 1, hi + 1, len.length, stop);
  set_state(c, kBand);
  c.bound = std::max(c.bound, b / kBarSlack / len.scale);
  return !(b > stop);
}

// A pick round drops a record for good once its bound exceeds the
// retention bar or it overlaps an earlier pick (both only ever grow).
bool BestFirstSearch::out_of_picks(const MatchCandidate& c) const noexcept {
  if (c.bound > retention_bar_) return true;
  const std::size_t len = ws_.lengths[c.length_index].length;
  for (const SeriesMatch::Candidate& pick : out_.top) {
    if (overlaps(c.start, len, pick.start, pick.length)) return true;
  }
  return false;
}

// Weighs a record with an exact distance as the round's result: the
// winner round orders by (score, length, start), the scan order of the
// reference, and the pick rounds by (distance, start, length) among the
// distances within the round's bar.
void BestFirstSearch::consider(const MatchCandidate& c, double target,
                               Best& best) const {
  const double v = key(c);
  if (!winner_round_ && !(v <= target)) return;
  if (best.found) {
    const MatchCandidate& b = best.record;
    if (v != best.value) {
      if (!(v < best.value)) return;
    } else if (winner_round_ ? std::tie(c.length_index, c.start) >=
                                   std::tie(b.length_index, b.start)
                             : std::tie(c.start, c.length_index) >=
                                   std::tie(b.start, b.length_index)) {
      return;
    }
  }
  best.found = true;
  best.value = v;
  best.record = c;
}

bool BestFirstSearch::round(double target, Best& best) {
  admission_ = kFirstAdmission;
  for (;;) {
    const double cap = best.found ? best.value : target;
    MatchLength* next = nullptr;
    double next_key = 0.0;
    for (MatchLength& len : ws_.lengths) {
      if (len.heap_size == 0) continue;
      const double k = key(ws_.candidates[len.first]);
      if (next == nullptr || k < next_key) {
        next = &len;
        next_key = k;
      }
    }
    // Pending records may key below the heaps' least key from here on.
    const double floor = pending_floor();
    if (lowest_ < kBuckets && floor <= cap &&
        (next == nullptr || floor <= next_key)) {
      admit(cap);
      continue;
    }
    if (next == nullptr || !(next_key <= cap)) break;
    MatchCandidate c = pop(*next);
    if (out_of_picks(c)) continue;
    if (c.state == kExact) {
      consider(c, target, best);
      ws_.parked.push_back(c);
      continue;
    }
    const double* seg = segment(c, 0);
    if (c.state == kEndpoint) {
      band_bound(c, seg, cap);
      push(c);
      continue;
    }
    score_batch(*next, c, seg, target, best);
  }
  return best.found;
}

// Records a round took out and weighed go back into their heaps.
void BestFirstSearch::restore_parked() {
  for (const MatchCandidate& c : ws_.parked) push(c);
  ws_.parked.clear();
}

// Stage 3: DTW on `first` and up to kLanes - 1 more records of its length
// that are within the cap, in one kernel call. Every lane shares the
// geometry and one abandon bar: the loosest lane's raw cap, so no lane is
// abandoned below its own. A lane abandoned at that bar keys above the
// cap from then on; one that completes is weighed as a result.
void BestFirstSearch::score_batch(MatchLength& len,
                                  const MatchCandidate& first,
                                  const double* first_seg, double target,
                                  Best& best) {
  MatchCandidate lanes[kLanes];
  const double* segs[kLanes];
  lanes[0] = first;
  segs[0] = first_seg;
  std::size_t count = 1;
  while (count < kLanes && len.heap_size > 0) {
    const double cap = best.found ? best.value : target;
    if (!(key(ws_.candidates[len.first]) <= cap)) break;
    MatchCandidate c = pop(len);
    if (out_of_picks(c)) continue;
    if (c.state == kExact) {
      consider(c, target, best);
      ws_.parked.push_back(c);
      continue;
    }
    const double* seg = segment(c, count);
    if (c.state == kEndpoint && !band_bound(c, seg, cap)) {
      push(c);
      continue;
    }
    lanes[count] = c;
    segs[count] = seg;
    ++count;
  }

  const double cap = best.found ? best.value : target;
  double bar = 0.0;
  for (std::size_t l = 0; l < count; ++l) {
    bar = std::max(bar, raw_cap(cap, penalty(lanes[l]), len.scale));
  }
  const double abandon_above = std::min(bar, opt_.dtw.abandon_above);
  // Abandoned under the caller's own bar: the reference drops it too.
  const bool abandon_is_final = opt_.dtw.abandon_above <= bar;
  DtwBatchBuffers& batch = ws_.batch;
  dtw_band_geometry(q_.size(), len.length,
                    dtw_band_cells(opt_.dtw, q_.size(), len.length),
                    batch.j_lo(), batch.j_hi());
  double d_raw[kLanes];
  kernels_.dtw_banded_batch(q_.data(), q_.size(), segs, count, len.length,
                            batch.j_lo(), batch.j_hi(), abandon_above,
                            batch.scratch(), d_raw);
  out_.scan.dtw_runs += count;
  ++out_.scan.dtw_batches;

  for (std::size_t l = 0; l < count; ++l) {
    MatchCandidate& c = lanes[l];
    if (d_raw[l] == kInf) {
      if (abandon_is_final) {
        set_state(c, kDead);
        continue;
      }
      set_state(c, kAbandoned);
      c.bound = std::max(c.bound, bar / len.scale);
      push(c);
      continue;
    }
    set_state(c, kExact);
    c.bound = d_raw[l] / len.scale;
    if (c.bound > retention_bar_) ++out_.scan.hits_filtered;
    consider(c, target, best);
    ws_.parked.push_back(c);
  }
}

SeriesMatch BestFirstSearch::run() {
  Best winner;
  if (round(kInf, winner)) {
    const MatchCandidate& w = winner.record;
    out_.found = true;
    out_.start = w.start;
    out_.length = ws_.lengths[w.length_index].length;
    out_.distance = w.bound;
    out_.score = winner.value;

    // Every exact distance of the winner round is parked until now.
    retention_bar_ = retention_bar(opt_, out_.score);
    for (const MatchCandidate& c : ws_.parked) {
      if (c.state == kExact && c.bound > retention_bar_) {
        ++out_.scan.hits_filtered;
      }
    }
    winner_round_ = false;
    restore_parked();
    refile_for_picks();
    const double tie_bar = tie_break_bar(opt_.tie_break_ratio, out_.distance);
    const std::size_t top_k = std::max<std::size_t>(opt_.top_k, 1);
    while (out_.top.size() < top_k) {
      double target = retention_bar_;
      if (out_.top.size() >= 2 && tie_bar < target) target = tie_bar;
      Best pick;
      const bool found = round(target, pick);
      restore_parked();
      if (!found) break;
      out_.top.push_back({pick.record.start,
                          ws_.lengths[pick.record.length_index].length,
                          pick.value});
    }
    if (out_.top.size() >= 2) {
      out_.runner_up = out_.top[1].distance;
      out_.runner_up_start = out_.top[1].start;
      out_.runner_up_length = out_.top[1].length;
    }
  }
  SeriesMatchStats& s = out_.scan;
  s.lb_endpoint_pruned = counts_[kEndpoint];
  s.lb_band_pruned = counts_[kBand];
  s.dtw_abandoned = counts_[kAbandoned] + counts_[kDead];
  s.dtw_evaluated = counts_[kExact];
  s.candidates = s.lb_endpoint_pruned + s.lb_band_pruned + s.dtw_abandoned +
                 s.dtw_evaluated;
  return std::move(out_);
}

// Turns the hit list of the reference scan into the reported SeriesMatch:
// the winner is the first hit in scan order reaching the minimum score,
// the retention filter drops everything beyond the bar, and the top-K is
// the greedy non-overlapping pick in (distance, start, length) order,
// truncated after top[1] at the tie-break bar.
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

    // Total order (distance, start, length): (start, length) is unique
    // per hit, so the order is strict.
    std::sort(hits.begin(), hits.end(),
              [](const MatchHit& a, const MatchHit& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                if (a.start != b.start) return a.start < b.start;
                return a.length < b.length;
              });
    const double tie_bar = tie_break_bar(opt.tie_break_ratio, best.distance);
    const std::size_t top_k = std::max<std::size_t>(opt.top_k, 1);
    for (const MatchHit& h : hits) {
      if (best.top.size() >= top_k) break;
      bool clash = false;
      for (const auto& c : best.top) {
        if (overlaps(h.start, h.length, c.start, c.length)) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      if (best.top.size() >= 2 && h.distance > tie_bar) break;
      best.top.push_back({h.start, h.length, h.distance});
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

void build_envelope(std::span<const double> q, std::size_t m,
                    const DtwOptions& dtw, simd::AlignedVector& lo,
                    simd::AlignedVector& hi) {
  lo.resize(m + 1);
  hi.resize(m + 1);
  fill_envelope(q, m, dtw, lo.data(), hi.data());
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

  // The records hold starts and length indices in 32 and 16 bits; the
  // reference scan serves inputs beyond that.
  if (reference.size() > std::numeric_limits<std::uint32_t>::max() ||
      lengths.size() > std::numeric_limits<std::uint16_t>::max()) {
    return find_best_match_reference(query, reference, options);
  }
  BestFirstSearch search(query, reference, options, workspace);
  if (!search.init(lengths)) return SeriesMatch{};
  return search.run();
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
      ++stats.dtw_runs;
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
