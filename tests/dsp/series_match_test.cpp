#include "dsp/series_match.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace vihot::dsp {
namespace {

// A reference with distinctive local shapes: a chirp.
std::vector<double> chirp(int n) {
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / n;
    xs.push_back(std::sin(2.0 * 3.14159265 * (2.0 + 10.0 * t) * t));
  }
  return xs;
}

TEST(SeriesMatchTest, FindsExactSubsequence) {
  const auto ref = chirp(400);
  const std::vector<double> query(ref.begin() + 120, ref.begin() + 160);
  SeriesMatchOptions opt;
  opt.start_stride = 1;
  const SeriesMatch m = find_best_match(query, ref, opt);
  ASSERT_TRUE(m.found);
  EXPECT_NEAR(static_cast<double>(m.start), 120.0, 3.0);
  EXPECT_NEAR(m.distance, 0.0, 1e-9);
}

TEST(SeriesMatchTest, AbsorbsSpeedMismatch) {
  // A smoothed random walk has a unique shape everywhere (unlike a
  // chirp, which is self-similar under time scaling): the only good
  // match for a 2x-subsampled query is the original region, stretched.
  util::Rng rng(42);
  std::vector<double> ref;
  double v = 0.0;
  double mom = 0.0;
  for (int i = 0; i < 400; ++i) {
    mom = 0.9 * mom + rng.normal(0.0, 0.05);
    v += mom;
    ref.push_back(v);
  }
  std::vector<double> query;
  for (int i = 120; i < 180; i += 2) {
    query.push_back(ref[static_cast<std::size_t>(i)]);
  }
  SeriesMatchOptions opt;
  opt.start_stride = 1;
  const SeriesMatch m = find_best_match(query, ref, opt);
  ASSERT_TRUE(m.found);
  EXPECT_NEAR(static_cast<double>(m.start), 120.0, 8.0);
  EXPECT_GT(m.length, query.size());
}

TEST(SeriesMatchTest, EmptyInputsNotFound) {
  const std::vector<double> ref = {1.0, 2.0, 3.0};
  EXPECT_FALSE(find_best_match({}, ref).found);
  EXPECT_FALSE(find_best_match(ref, {}).found);
  EXPECT_FALSE(find_best_match(std::vector<double>{1.0}, ref).found);
}

TEST(SeriesMatchTest, ReferenceShorterThanCandidates) {
  const std::vector<double> query(50, 1.0);
  const std::vector<double> ref = {1.0, 1.0, 1.0};
  // Smallest candidate is 25 samples > reference size: nothing to try.
  const SeriesMatch m = find_best_match(query, ref);
  EXPECT_FALSE(m.found);
}

TEST(SeriesMatchTest, RunnerUpDoesNotOverlapWinner) {
  // Periodic reference: the same shape repeats, so a distinct second
  // match must exist away from the winner.
  std::vector<double> ref;
  for (int i = 0; i < 300; ++i) ref.push_back(std::sin(0.2 * i));
  std::vector<double> query(ref.begin() + 30, ref.begin() + 60);
  SeriesMatchOptions opt;
  opt.start_stride = 1;
  const SeriesMatch m = find_best_match(query, ref, opt);
  ASSERT_TRUE(m.found);
  ASSERT_GT(m.runner_up_length, 0u);
  const bool overlap = m.runner_up_start < m.end() &&
                       m.start < m.runner_up_start + m.runner_up_length;
  EXPECT_FALSE(overlap);
  EXPECT_NEAR(m.runner_up, m.distance, 0.02);  // periodic: near-tie
}

TEST(SeriesMatchTest, TopCandidatesSortedAndDisjoint) {
  std::vector<double> ref;
  for (int i = 0; i < 400; ++i) ref.push_back(std::sin(0.15 * i));
  std::vector<double> query(ref.begin() + 50, ref.begin() + 90);
  SeriesMatchOptions opt;
  opt.start_stride = 1;
  opt.top_k = 4;
  const SeriesMatch m = find_best_match(query, ref, opt);
  ASSERT_TRUE(m.found);
  ASSERT_GE(m.top.size(), 2u);
  for (std::size_t i = 1; i < m.top.size(); ++i) {
    EXPECT_GE(m.top[i].distance, m.top[i - 1].distance);
    for (std::size_t j = 0; j < i; ++j) {
      const bool overlap = m.top[j].start < m.top[i].end() &&
                           m.top[i].start < m.top[j].end();
      EXPECT_FALSE(overlap) << i << " vs " << j;
    }
  }
  EXPECT_EQ(m.top[0].start, m.start);
}

TEST(SeriesMatchTest, CandidateFilterExcludesRegions) {
  const auto ref = chirp(400);
  const std::vector<double> query(ref.begin() + 120, ref.begin() + 160);
  SeriesMatchOptions opt;
  opt.start_stride = 1;
  // Forbid every segment ending in [100, 240), which holds the true
  // match's end (159); the match must end elsewhere.
  std::vector<double> penalty(ref.size(), 0.0);
  std::fill(penalty.begin() + 100, penalty.begin() + 240,
            std::numeric_limits<double>::infinity());
  opt.end_penalty = penalty;
  const SeriesMatch m = find_best_match(query, ref, opt);
  ASSERT_TRUE(m.found);
  EXPECT_TRUE(m.end() - 1 < 100 || m.end() - 1 >= 240);
  EXPECT_GT(m.distance, 1e-6);
}

TEST(SeriesMatchTest, ScoreBiasBreaksTies) {
  // Periodic reference with two equivalent matches; bias one away.
  std::vector<double> ref;
  for (int i = 0; i < 200; ++i) ref.push_back(std::sin(0.2 * i));
  // Query matches around i=30 and around i=30+period(~157/5)...
  std::vector<double> query(ref.begin() + 100, ref.begin() + 130);
  SeriesMatchOptions opt;
  opt.start_stride = 1;
  // Penalize every segment ending past the early region.
  std::vector<double> penalty(ref.size(), 0.0);
  std::fill(penalty.begin() + 91, penalty.end(), 1.0);
  opt.end_penalty = penalty;
  const SeriesMatch m = find_best_match(query, ref, opt);
  ASSERT_TRUE(m.found);
  EXPECT_LE(m.end() - 1, 90u);
  EXPECT_LT(m.score, 1.0);
  EXPECT_EQ(m.score, m.distance);
}

TEST(SeriesMatchTest, MaxDcOffsetAbsorbsSmallShift) {
  const auto ref = chirp(300);
  std::vector<double> query(ref.begin() + 80, ref.begin() + 120);
  for (double& v : query) v += 0.15;
  SeriesMatchOptions with;
  with.start_stride = 1;
  with.max_dc_offset = 0.2;
  SeriesMatchOptions without;
  without.start_stride = 1;
  const SeriesMatch m_with = find_best_match(query, ref, with);
  const SeriesMatch m_without = find_best_match(query, ref, without);
  ASSERT_TRUE(m_with.found);
  ASSERT_TRUE(m_without.found);
  EXPECT_LT(m_with.distance, m_without.distance);
}

// Property: the winner's distance never exceeds any fixed candidate's.
class MatchOptimality : public ::testing::TestWithParam<int> {};

TEST_P(MatchOptimality, WinnerBeatsSampledCandidates) {
  const auto ref = chirp(250);
  const int at = 40 + 13 * GetParam();
  const std::vector<double> query(
      ref.begin() + at, ref.begin() + at + 30);
  SeriesMatchOptions opt;
  opt.start_stride = 1;
  const SeriesMatch m = find_best_match(query, ref, opt);
  ASSERT_TRUE(m.found);
  // Compare against a handful of explicit candidates.
  for (std::size_t start = 0; start + 30 <= ref.size(); start += 17) {
    const double d = dtw_distance_normalized(
        query, std::span<const double>(ref).subspan(start, 30));
    EXPECT_LE(m.distance, d + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Starts, MatchOptimality, ::testing::Range(0, 8));

}  // namespace
}  // namespace vihot::dsp
