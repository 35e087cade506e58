// Matcher-equivalence suite (ctest label: matcher-equivalence).
//
// The fast path of dsp::find_best_match — prefix-sum means, the
// endpoint/band lower-bound cascade, DTW early abandoning, and
// workspace reuse — is only allowed to change how fast the answer
// arrives, never the answer. These tests pin that invariant down with
// EXPECT_EQ on doubles: best, runner-up, and top-K must be
// BIT-IDENTICAL between the pruned scan, the naive unpruned reference
// implementation, and scans running concurrently on other threads.
#include "dsp/series_match.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dsp/dtw.h"
#include "tests/dsp/match_option_matrix.h"

namespace vihot::dsp {
namespace {

std::vector<double> noisy_sine(std::size_t n, double period,
                               std::uint32_t seed, double amp = 1.0) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.05);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = amp * std::sin(2.0 * 3.14159265358979 *
                           static_cast<double>(i) / period) +
            noise(rng);
  }
  return xs;
}

void expect_same_match(const SeriesMatch& a, const SeriesMatch& b,
                       const char* what) {
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.start, b.start) << what;
  EXPECT_EQ(a.length, b.length) << what;
  EXPECT_EQ(a.distance, b.distance) << what;  // bit-identical, not NEAR
  EXPECT_EQ(a.score, b.score) << what;
  EXPECT_EQ(a.runner_up, b.runner_up) << what;
  EXPECT_EQ(a.runner_up_start, b.runner_up_start) << what;
  EXPECT_EQ(a.runner_up_length, b.runner_up_length) << what;
  ASSERT_EQ(a.top.size(), b.top.size()) << what;
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].start, b.top[i].start) << what << " top[" << i << "]";
    EXPECT_EQ(a.top[i].length, b.top[i].length)
        << what << " top[" << i << "]";
    EXPECT_EQ(a.top[i].distance, b.top[i].distance)
        << what << " top[" << i << "]";
  }
}

TEST(MatcherEquivalence, FastPathMatchesNaiveReference) {
  const auto reference = noisy_sine(600, 48.0, 21);
  const auto query = noisy_sine(30, 48.0, 22);
  for (const NamedOptions& cfg : option_matrix(reference.size())) {
    const SeriesMatchOptions opt = cfg.options();
    const SeriesMatch fast = find_best_match(query, reference, opt);
    const SeriesMatch naive = find_best_match_reference(query, reference, opt);
    expect_same_match(fast, naive, cfg.name);
    // Both scans skip the same +inf-penalized candidates before counting.
    EXPECT_EQ(fast.scan.candidates, naive.scan.candidates) << cfg.name;
  }
}

// A penalty span that does not cover the reference index for index is
// rejected by both scans (found == false) without reading past it.
TEST(MatcherEquivalence, MismatchedPenaltySizeFindsNothing) {
  const auto reference = noisy_sine(600, 48.0, 23);
  const auto query = noisy_sine(30, 48.0, 24);
  for (const std::size_t n : {std::size_t{1}, reference.size() - 1,
                              reference.size() + 1}) {
    const std::vector<double> penalty(n, 0.0);
    SeriesMatchOptions opt;
    opt.end_penalty = penalty;
    const SeriesMatch fast = find_best_match(query, reference, opt);
    const SeriesMatch naive = find_best_match_reference(query, reference, opt);
    EXPECT_FALSE(fast.found) << n;
    EXPECT_FALSE(naive.found) << n;
    EXPECT_EQ(fast.scan.candidates, 0u) << n;
    EXPECT_EQ(naive.scan.candidates, 0u) << n;
  }
}

TEST(MatcherEquivalence, ParallelMatchesSerialBitIdentical) {
  // Engine workers run many sessions' scans at once, each through its
  // own thread's default workspace. Concurrent scans must neither share
  // scratch nor see each other's state.
  const auto reference = noisy_sine(600, 48.0, 31);
  const auto query = noisy_sine(30, 48.0, 32);
  const std::vector<NamedOptions> matrix = option_matrix(reference.size());
  std::vector<SeriesMatch> serial;
  for (const NamedOptions& cfg : matrix) {
    serial.push_back(find_best_match(query, reference, cfg.options()));
  }

  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<std::vector<SeriesMatch>> got(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the matrix from its own offset, so different
        // option sets overlap in time.
        for (std::size_t k = 0; k < matrix.size(); ++k) {
          const NamedOptions& cfg = matrix[(k + w) % matrix.size()];
          got[w].push_back(find_best_match(query, reference, cfg.options()));
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();

  for (std::size_t w = 0; w < kThreads; ++w) {
    ASSERT_EQ(got[w].size(), kRounds * matrix.size());
    for (std::size_t i = 0; i < got[w].size(); ++i) {
      const std::size_t k = (i % matrix.size() + w) % matrix.size();
      expect_same_match(serial[k], got[w][i], matrix[k].name);
      // A serial scan prunes deterministically, so the funnel matches
      // too, not just the report.
      const SeriesMatchStats& a = serial[k].scan;
      const SeriesMatchStats& b = got[w][i].scan;
      EXPECT_EQ(a.candidates, b.candidates) << matrix[k].name;
      EXPECT_EQ(a.lb_endpoint_pruned, b.lb_endpoint_pruned) << matrix[k].name;
      EXPECT_EQ(a.lb_band_pruned, b.lb_band_pruned) << matrix[k].name;
      EXPECT_EQ(a.dtw_abandoned, b.dtw_abandoned) << matrix[k].name;
      EXPECT_EQ(a.dtw_evaluated, b.dtw_evaluated) << matrix[k].name;
      EXPECT_EQ(a.hits_filtered, b.hits_filtered) << matrix[k].name;
    }
  }
}

TEST(MatcherEquivalence, DirtyWorkspaceReuseIsBitIdentical) {
  const auto ref_a = noisy_sine(500, 40.0, 41);
  const auto ref_b = noisy_sine(300, 25.0, 42);
  const auto query = noisy_sine(28, 40.0, 43);
  SeriesMatchOptions opt;
  opt.dtw.band_fraction = 0.25;
  MatchWorkspace ws;
  const SeriesMatch first = find_best_match(query, ref_a, opt, ws);
  // Scans against a different reference, then the original again: the
  // recycled buffers must not leak state between calls.
  (void)find_best_match(query, ref_b, opt, ws);
  const SeriesMatch again = find_best_match(query, ref_a, opt, ws);
  expect_same_match(first, again, "workspace reuse");
}

TEST(MatcherEquivalence, PruneFunnelAccountsForEveryCandidate) {
  const auto reference = noisy_sine(600, 48.0, 51);
  const auto query = noisy_sine(30, 48.0, 52);
  SeriesMatchOptions opt;
  opt.dtw.band_fraction = 0.25;
  const SeriesMatch pruned = find_best_match(query, reference, opt);
  const SeriesMatch unpruned =
      find_best_match_reference(query, reference, opt);
  const SeriesMatchStats& s = pruned.scan;
  EXPECT_EQ(s.candidates, s.lb_endpoint_pruned + s.lb_band_pruned +
                              s.dtw_abandoned + s.dtw_evaluated);
  EXPECT_EQ(unpruned.scan.dtw_evaluated + unpruned.scan.dtw_abandoned,
            unpruned.scan.candidates);
  // The whole point of the fast path: far fewer full DTW evaluations.
  EXPECT_LT(s.dtw_evaluated, unpruned.scan.dtw_evaluated / 2);
  EXPECT_GT(s.lb_endpoint_pruned + s.lb_band_pruned + s.dtw_abandoned, 0u);
}

// Regression (runner-up starvation): once the old scan found a perfect
// (distance ~0) winner its pruning bar collapsed to zero and every later
// candidate was skipped — so a periodic signal whose second-best match
// lies AFTER the winner in scan order reported no runner-up at all. The
// slack-aware bar must keep the runner-up bookkeeping exact.
TEST(MatcherEquivalence, RunnerUpSurvivesExactWinnerPruning) {
  std::vector<double> reference(220);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    reference[i] =
        std::sin(2.0 * 3.14159265358979 * static_cast<double>(i) / 50.0);
  }
  // Exact copy of an early window: the winner (distance == 0) appears
  // early in the scan; the twin one period later must still be reported.
  const std::vector<double> query(reference.begin() + 10,
                                  reference.begin() + 40);
  SeriesMatchOptions opt;
  opt.dtw.band_fraction = 0.25;
  opt.start_stride = 2;
  const SeriesMatch pruned = find_best_match(query, reference, opt);
  ASSERT_TRUE(pruned.found);
  EXPECT_EQ(pruned.distance, 0.0);
  EXPECT_GT(pruned.runner_up_length, 0u)
      << "runner-up starved by an exact winner";
  EXPECT_NEAR(static_cast<double>(pruned.runner_up_start), 60.0, 4.0);
  const SeriesMatch unpruned =
      find_best_match_reference(query, reference, opt);
  expect_same_match(pruned, unpruned, "exact-winner pruning");
}

// Top-K oracle. find_best_match_reference shares the matcher's report
// assembly (winner, retention filter, top-K selection, tie-break bar), so
// comparing the two cannot catch a selection bug. This oracle shares none
// of it: it
// scores every candidate through the plain dtw_distance with the same
// arithmetic as the scan (prefix-sum means, segment-side DC shift,
// length normalization), fully sorts the retained hits by (distance,
// start, length), runs the greedy non-overlap pick and truncates it at
// its own copy of the tie-break bar.
SeriesMatch oracle_match(std::span<const double> query,
                         std::span<const double> reference,
                         const SeriesMatchOptions& opt) {
  struct Hit {
    std::size_t start;
    std::size_t length;
    double distance;
    double score;
  };
  std::vector<std::size_t> lengths;
  const std::size_t n_lengths = std::max<std::size_t>(opt.num_lengths, 1);
  const double lo_f = std::max(opt.min_length_factor, 0.0);
  const double hi_f = std::max(opt.max_length_factor, lo_f);
  for (std::size_t k = 0; k < n_lengths; ++k) {
    const double f = (n_lengths == 1)
                         ? lo_f
                         : lo_f + (hi_f - lo_f) * static_cast<double>(k) /
                                      static_cast<double>(n_lengths - 1);
    const auto len = static_cast<std::size_t>(
        std::round(f * static_cast<double>(query.size())));
    if (len >= 2) lengths.push_back(len);
  }
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());

  std::vector<double> prefix;
  build_prefix_sums(reference, prefix);
  double qsum = 0.0;
  for (const double v : query) qsum += v;
  const double qmean = qsum / static_cast<double>(query.size());

  std::vector<Hit> hits;
  const std::size_t stride = std::max<std::size_t>(opt.start_stride, 1);
  for (const std::size_t len : lengths) {
    for (std::size_t start = 0; start + len <= reference.size();
         start += stride) {
      const double penalty =
          opt.end_penalty.empty() ? 0.0 : opt.end_penalty[start + len - 1];
      if (std::isinf(penalty)) continue;
      const double smean =
          (prefix[start + len] - prefix[start]) / static_cast<double>(len);
      const double cap = opt.max_dc_offset;
      const double shift =
          cap > 0.0 ? std::clamp(smean - qmean, -cap, cap) : 0.0;
      std::vector<double> seg(len);
      for (std::size_t j = 0; j < len; ++j) {
        seg[j] = reference[start + j] - shift;
      }
      const double d_raw = dtw_distance(query, seg, opt.dtw);
      if (std::isinf(d_raw)) continue;
      const double d = d_raw / static_cast<double>(query.size() + len);
      hits.push_back({start, len, d, d + penalty});
    }
  }

  SeriesMatch best;
  if (hits.empty()) return best;
  const Hit* win = &hits[0];
  for (const Hit& h : hits) {
    if (h.score < win->score) win = &h;
  }
  best.found = true;
  best.start = win->start;
  best.length = win->length;
  best.distance = win->distance;
  best.score = win->score;

  const double bar = std::max(opt.runner_up_slack, 1.0) * best.score +
                     std::max(opt.runner_up_slack_abs, 0.0);
  std::vector<Hit> kept;
  for (const Hit& h : hits) {
    if (h.distance <= bar) kept.push_back(h);
  }
  std::sort(kept.begin(), kept.end(), [](const Hit& a, const Hit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    if (a.start != b.start) return a.start < b.start;
    return a.length < b.length;
  });
  // Picks after top[1] stop at the first one beyond the tie-break bar.
  const double tie_bar =
      opt.tie_break_ratio * std::max(best.distance, 1e-6);
  for (const Hit& h : kept) {
    if (best.top.size() >= std::max<std::size_t>(opt.top_k, 1)) break;
    const bool clash =
        std::any_of(best.top.begin(), best.top.end(),
                    [&](const SeriesMatch::Candidate& c) {
                      return h.start < c.end() && c.start < h.start + h.length;
                    });
    if (clash) continue;
    if (best.top.size() >= 2 && h.distance > tie_bar) break;
    best.top.push_back({h.start, h.length, h.distance});
  }
  if (best.top.size() >= 2) {
    best.runner_up = best.top[1].distance;
    best.runner_up_start = best.top[1].start;
    best.runner_up_length = best.top[1].length;
  }
  return best;
}

// Step levels held for whole blocks: a flat query then matches every
// same-level stretch at exactly the same distance, so the top-K order
// rests on the (start, length) tie-break alone.
std::vector<double> piecewise_constant(std::size_t n, std::size_t block) {
  static constexpr double kLevels[] = {0.0, 0.5, 0.0, -0.5, 0.5, 0.0};
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = kLevels[(i / block) % std::size(kLevels)];
  }
  return xs;
}

TEST(MatcherEquivalence, TopKMatchesSortingOracle) {
  struct Case {
    const char* name;
    std::vector<double> query;
    std::vector<double> reference;
  };
  std::vector<double> step_query(30, 0.0);
  std::fill(step_query.begin() + 15, step_query.end(), 0.5);
  const std::vector<Case> cases = {
      {"noisy_sine", noisy_sine(30, 48.0, 62), noisy_sine(600, 48.0, 61)},
      {"piecewise_flat", std::vector<double>(30, 0.0),
       piecewise_constant(600, 70)},
      {"piecewise_step", step_query, piecewise_constant(600, 40)},
  };
  for (const Case& c : cases) {
    for (const NamedOptions& cfg : option_matrix(c.reference.size())) {
      for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                                  std::size_t{64}}) {
        SeriesMatchOptions opt = cfg.options();
        opt.top_k = k;
        const SeriesMatch want = oracle_match(c.query, c.reference, opt);
        const SeriesMatch got = find_best_match(c.query, c.reference, opt);
        const std::string what = std::string(c.name) + "/" + cfg.name +
                                 "/top_k=" + std::to_string(k);
        expect_same_match(got, want, what.c_str());
        EXPECT_LE(got.top.size(), k) << what;
        if (k == 64 && std::string(c.name) == "piecewise_flat") {
          // The tie-break really is exercised: distinct hits, same bits.
          ASSERT_GE(got.top.size(), 2u) << what;
          EXPECT_EQ(got.top[0].distance, got.top[1].distance) << what;
        }
      }
    }
  }
}

// Both oracles, one verdict: the fast path must equal the reference scan
// and the independent oracle, report and candidate count alike.
void expect_matches_both_oracles(std::span<const double> query,
                                 std::span<const double> reference,
                                 const SeriesMatchOptions& opt,
                                 const std::string& what) {
  const SeriesMatch fast = find_best_match(query, reference, opt);
  const SeriesMatch naive = find_best_match_reference(query, reference, opt);
  const SeriesMatch oracle = oracle_match(query, reference, opt);
  expect_same_match(fast, naive, (what + " vs reference").c_str());
  expect_same_match(fast, oracle, (what + " vs oracle").c_str());
  EXPECT_EQ(fast.scan.candidates, naive.scan.candidates) << what;
}

// Tie-break ratios: the full top-K, the tracker's default, a tight bar and
// one below the winner's own distance.
constexpr double kTieRatios[] = {std::numeric_limits<double>::infinity(),
                                 3.0, 1.2, 0.5};

// The options of `cfg` with one top_k and tie-break ratio.
SeriesMatchOptions with_picks(const NamedOptions& cfg, std::size_t top_k,
                              double ratio) {
  SeriesMatchOptions opt = cfg.options();
  opt.top_k = top_k;
  opt.tie_break_ratio = ratio;
  return opt;
}

// Values on a 0.25 grid: many candidates share bit-identical distances,
// so every round's (distance, start, length) and scan-order tie-breaks
// decide the report.
TEST(MatcherEquivalence, QuantizedSeriesWithManyEqualDistances) {
  auto reference = noisy_sine(600, 48.0, 71);
  for (double& v : reference) v = std::round(4.0 * v) / 4.0;
  const std::vector<double> query(reference.begin() + 200,
                                  reference.begin() + 230);
  for (const NamedOptions& cfg : option_matrix(reference.size())) {
    for (const std::size_t k : {std::size_t{4}, std::size_t{64}}) {
      for (const double ratio : kTieRatios) {
        expect_matches_both_oracles(
            query, reference, with_picks(cfg, k, ratio),
            std::string("quantized/") + cfg.name + "/k=" + std::to_string(k) +
                "/ratio=" + std::to_string(ratio));
      }
    }
  }
}

// A zero query against a zero stretch: candidates of every length inside
// the stretch tie at distance 0. The +inf ends keep the short lengths off
// the stretch's start, so the winner (first in scan order: length, then
// start) and top[0] (least start, then length) are different segments.
TEST(MatcherEquivalence, TiesAcrossLengths) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> reference(400, 1.0);
  std::fill(reference.begin() + 100, reference.begin() + 160, 0.0);
  const std::vector<double> query(30, 0.0);
  std::vector<double> penalty(reference.size(), 0.0);
  std::fill(penalty.begin(), penalty.begin() + 130, kInf);
  SeriesMatchOptions opt;
  opt.dtw.band_fraction = 0.25;
  opt.end_penalty = penalty;
  const SeriesMatch m = find_best_match(query, reference, opt);
  ASSERT_TRUE(m.found);
  EXPECT_EQ(m.distance, 0.0);
  ASSERT_GE(m.top.size(), 2u);
  EXPECT_EQ(m.top[0].distance, 0.0);
  EXPECT_NE(m.top[0].length, m.length) << "ties across lengths exercised";
  EXPECT_LT(m.top[0].start, m.start);
  for (const std::size_t k : {std::size_t{4}, std::size_t{64}}) {
    for (const double ratio : kTieRatios) {
      SeriesMatchOptions o = opt;
      o.top_k = k;
      o.tie_break_ratio = ratio;
      expect_matches_both_oracles(query, reference, o,
                                  "ties_across_lengths/k=" +
                                      std::to_string(k) + "/ratio=" +
                                      std::to_string(ratio));
    }
  }
}

// A finite penalty strong enough that the least score and the least
// distance are different candidates: the winner round and the pick
// rounds order the same records differently.
TEST(MatcherEquivalence, FinitePenaltiesReorderScoreAgainstDistance) {
  const auto reference = noisy_sine(600, 48.0, 81);
  const auto query = noisy_sine(30, 48.0, 82);
  std::vector<double> penalty(reference.size());
  for (std::size_t e = 0; e < penalty.size(); ++e) {
    const double dev = static_cast<double>(e) - 420.0;
    penalty[e] = 2e-6 * dev * dev;
  }
  SeriesMatchOptions opt;
  opt.dtw.band_fraction = 0.25;
  opt.end_penalty = penalty;
  const SeriesMatch m = find_best_match(query, reference, opt);
  ASSERT_TRUE(m.found);
  ASSERT_FALSE(m.top.empty());
  EXPECT_LT(m.top[0].distance, m.distance) << "the penalty reordered them";
  EXPECT_GT(m.score, m.distance);
  for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                              std::size_t{64}}) {
    for (const double ratio : kTieRatios) {
      SeriesMatchOptions o = opt;
      o.top_k = k;
      o.tie_break_ratio = ratio;
      expect_matches_both_oracles(query, reference, o,
                                  "reordering_penalty/k=" +
                                      std::to_string(k) + "/ratio=" +
                                      std::to_string(ratio));
    }
  }
}

// The ratio whose tie-break bar is exactly `bar` for a winner at
// `winner_distance`, or NaN when no double in a few ulps hits it.
double ratio_for_exact_bar(double bar, double winner_distance) {
  const double base = std::max(winner_distance, 1e-6);
  double ratio = bar / base;
  for (int i = 0; i < 64 && tie_break_bar(ratio, winner_distance) != bar;
       ++i) {
    ratio = tie_break_bar(ratio, winner_distance) < bar
                ? std::nextafter(ratio, std::numeric_limits<double>::infinity())
                : std::nextafter(ratio, 0.0);
  }
  return tie_break_bar(ratio, winner_distance) == bar
             ? ratio
             : std::numeric_limits<double>::quiet_NaN();
}

// Bars between consecutive picks cut the report right there, never
// before top[1]; a pick whose distance equals the bar is kept.
TEST(MatcherEquivalence, TieBreakBarTruncatesBetweenPicks) {
  const auto reference = noisy_sine(600, 48.0, 91);
  const auto query = noisy_sine(30, 48.0, 92);
  for (const NamedOptions& cfg : option_matrix(reference.size())) {
    const SeriesMatch full = find_best_match(query, reference,
                                             with_picks(cfg, 6, std::numeric_limits<double>::infinity()));
    ASSERT_GE(full.top.size(), 5u) << cfg.name;
    for (std::size_t j = 1; j + 1 < full.top.size(); ++j) {
      // Midway between picks j and j + 1.
      const double bar =
          0.5 * (full.top[j].distance + full.top[j + 1].distance);
      const double ratio = bar / std::max(full.distance, 1e-6);
      const SeriesMatchOptions opt = with_picks(cfg, 6, ratio);
      const std::string what = std::string("between/") + cfg.name +
                               "/after_pick=" + std::to_string(j);
      expect_matches_both_oracles(query, reference, opt, what);
      const SeriesMatch cut = find_best_match(query, reference, opt);
      if (full.top[j].distance < full.top[j + 1].distance) {
        EXPECT_EQ(cut.top.size(), std::max<std::size_t>(j + 1, 2)) << what;
      }
    }
    // Exactly at pick 2's distance: kept, and pick 3 only if it ties.
    const double exact =
        ratio_for_exact_bar(full.top[2].distance, full.distance);
    ASSERT_FALSE(std::isnan(exact)) << cfg.name;
    const SeriesMatchOptions at_bar = with_picks(cfg, 6, exact);
    const std::string what = std::string("at_bar/") + cfg.name;
    expect_matches_both_oracles(query, reference, at_bar, what);
    const SeriesMatch kept = find_best_match(query, reference, at_bar);
    ASSERT_GE(kept.top.size(), 3u) << what;
    EXPECT_EQ(kept.top[2].distance, full.top[2].distance) << what;
    EXPECT_EQ(kept.top[2].start, full.top[2].start) << what;
  }
}

// A ratio below 1 puts the bar under the winner's own distance: the
// report keeps top[0] and top[1] and nothing after them.
TEST(MatcherEquivalence, TieBreakRatioBelowOne) {
  const auto reference = noisy_sine(600, 48.0, 101);
  const auto query = noisy_sine(30, 48.0, 102);
  for (const NamedOptions& cfg : option_matrix(reference.size())) {
    for (const double ratio : {0.9, 0.5, 0.0}) {
      const SeriesMatchOptions opt = with_picks(cfg, 4, ratio);
      const std::string what =
          std::string("below_one/") + cfg.name + "/" + std::to_string(ratio);
      expect_matches_both_oracles(query, reference, opt, what);
      const SeriesMatch m = find_best_match(query, reference, opt);
      EXPECT_LE(m.top.size(), 2u) << what;
    }
  }
}

// Every candidate excluded by +inf penalties: nothing found, nothing
// counted, and the search ends although it never had a record.
TEST(MatcherEquivalence, EveryCandidateExcludedFindsNothing) {
  const auto reference = noisy_sine(300, 48.0, 111);
  const auto query = noisy_sine(30, 48.0, 112);
  const std::vector<double> penalty(reference.size(),
                                    std::numeric_limits<double>::infinity());
  SeriesMatchOptions opt;
  opt.end_penalty = penalty;
  const SeriesMatch m = find_best_match(query, reference, opt);
  EXPECT_FALSE(m.found);
  EXPECT_EQ(m.scan.candidates, 0u);
  expect_matches_both_oracles(query, reference, opt, "all_excluded");
}

}  // namespace
}  // namespace vihot::dsp
