#include "core/stability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <set>
#include <vector>

#include "tests/same_bits.h"
#include "util/rng.h"

namespace vihot::core {
namespace {

TEST(StabilityTest, FlatStreamBecomesStable) {
  StablePhaseDetector det;
  util::Rng rng(1);
  bool stable = false;
  for (double t = 0.0; t < 3.0; t += 0.002) {
    stable = det.update(t, 0.5 + rng.normal(0.0, 0.005));
  }
  EXPECT_TRUE(stable);
  EXPECT_NEAR(det.stable_phase(), 0.5, 0.01);
}

TEST(StabilityTest, NeedsFullWindowFirst) {
  StablePhaseDetector::Config cfg;
  cfg.window_s = 1.2;
  StablePhaseDetector det(cfg);
  // Only 0.5 s of perfectly flat data: not enough time span yet.
  bool stable = false;
  for (double t = 0.0; t < 0.5; t += 0.002) {
    stable = det.update(t, 0.0);
  }
  EXPECT_FALSE(stable);
}

TEST(StabilityTest, HeadTurnBreaksStability) {
  StablePhaseDetector det;
  for (double t = 0.0; t < 2.0; t += 0.002) det.update(t, 0.1);
  EXPECT_TRUE(det.is_stable());
  // A head turn swings the phase by ~1 rad within 100 ms.
  bool stable = true;
  for (double t = 2.0; t < 2.1; t += 0.002) {
    stable = det.update(t, 0.1 + 10.0 * (t - 2.0));
  }
  EXPECT_FALSE(stable);
}

TEST(StabilityTest, RecoversAfterTurnEnds) {
  StablePhaseDetector det;
  for (double t = 0.0; t < 2.0; t += 0.002) det.update(t, 0.0);
  for (double t = 2.0; t < 2.5; t += 0.002) {
    det.update(t, std::sin(20.0 * (t - 2.0)));
  }
  EXPECT_FALSE(det.is_stable());
  // Settle at a new level: stable again after a full window.
  bool stable = false;
  for (double t = 2.5; t < 5.0; t += 0.002) {
    stable = det.update(t, 0.3);
  }
  EXPECT_TRUE(stable);
  EXPECT_NEAR(det.stable_phase(), 0.3, 0.01);
}

TEST(StabilityTest, SpreadThresholdIsRespected) {
  StablePhaseDetector::Config cfg;
  cfg.max_spread_rad = 0.08;
  StablePhaseDetector det(cfg);
  // Oscillation with peak-to-peak exactly above the threshold.
  bool stable = true;
  for (double t = 0.0; t < 3.0; t += 0.002) {
    stable = det.update(t, 0.05 * std::sin(3.0 * t));
  }
  EXPECT_FALSE(stable);  // p2p = 0.10 > 0.08
}

TEST(StabilityTest, MinSamplesGuard) {
  StablePhaseDetector::Config cfg;
  cfg.min_samples = 30;
  StablePhaseDetector det(cfg);
  // Sparse updates (one per 0.2 s): the window never holds 30 samples.
  bool stable = false;
  for (double t = 0.0; t < 5.0; t += 0.2) {
    stable = det.update(t, 0.0);
  }
  EXPECT_FALSE(stable);
}

TEST(StabilityTest, HistoryCapIsFiniteForAnySpan) {
  // Spans come from config fields no decoder range-checks: a NaN,
  // negative or absurd span must still give a small finite cap.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(csi_history_cap(nan), 1u);
  EXPECT_EQ(csi_history_cap(-1.0), 1u);
  EXPECT_EQ(csi_history_cap(1.2), 6001u);
  EXPECT_EQ(csi_history_cap(1e300), csi_history_cap(60.0));
  EXPECT_EQ(csi_history_cap(std::numeric_limits<double>::infinity()),
            csi_history_cap(60.0));
}

// The detector's spread check once folded the whole window on every
// update. This oracle keeps that O(W) fold verbatim; the O(1) amortised
// detector must agree with it bit for bit, step by step.
class FoldOracle {
 public:
  explicit FoldOracle(const StablePhaseDetector::Config& config)
      : config_(config) {}

  bool update(double t, double phase) {
    window_.push_back({t, phase});
    while (!window_.empty() && window_.front().t < t - config_.window_s) {
      window_.pop_front();
    }
    if (window_.size() < config_.min_samples ||
        (window_.back().t - window_.front().t) < 0.9 * config_.window_s) {
      stable_ = false;
      return false;
    }
    double lo = window_.front().phase;
    double hi = lo;
    double sum = 0.0;
    for (const Entry& e : window_) {
      lo = std::min(lo, e.phase);
      hi = std::max(hi, e.phase);
      sum += e.phase;
    }
    stable_ = (hi - lo) <= config_.max_spread_rad;
    if (stable_) mean_ = sum / static_cast<double>(window_.size());
    return stable_;
  }
  [[nodiscard]] bool is_stable() const { return stable_; }
  [[nodiscard]] double stable_phase() const { return mean_; }
 private:
  struct Entry {
    double t;
    double phase;
  };
  StablePhaseDetector::Config config_;
  std::deque<Entry> window_;
  bool stable_ = false;
  double mean_ = 0.0;
};

struct Sample {
  double t;
  double phase;
};

// Feeds `samples` to the detector and the oracle (restarting both from
// fresh instances before the indices in `restarts`); returns how many
// steps were stable so the caller can check that the input exercises
// both verdicts.
std::size_t expect_matches_oracle(const StablePhaseDetector::Config& cfg,
                                  const std::vector<Sample>& samples,
                                  const std::set<std::size_t>& restarts = {}) {
  StablePhaseDetector det(cfg);
  FoldOracle oracle(cfg);
  std::size_t stable_steps = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (restarts.count(i) != 0) {
      det = StablePhaseDetector(cfg);
      oracle = FoldOracle(cfg);
    }
    const bool got = det.update(samples[i].t, samples[i].phase);
    const bool want = oracle.update(samples[i].t, samples[i].phase);
    EXPECT_EQ(got, want) << "step " << i;
    EXPECT_EQ(det.is_stable(), oracle.is_stable()) << "step " << i;
    if (oracle.is_stable()) {
      EXPECT_SAME_BITS(det.stable_phase(), oracle.stable_phase())
          << "step " << i;
      ++stable_steps;
    }
    if (::testing::Test::HasFailure()) break;
  }
  return stable_steps;
}

TEST(StabilityOracleTest, SeededRandomWalks) {
  for (const double step : {0.0005, 0.001, 0.002, 0.004}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      util::Rng rng(seed);
      std::vector<Sample> samples;
      double phase = rng.uniform(-3.0, 3.0);
      for (double t = 0.0; t < 8.0; t += 0.002) {
        phase += rng.normal(0.0, step);
        samples.push_back({t, phase});
      }
      expect_matches_oracle({}, samples);
    }
  }
}

TEST(StabilityOracleTest, StableAndUnstablePlateaus) {
  util::Rng rng(7);
  std::vector<Sample> samples;
  double level = 0.2;
  double t = 0.0;
  for (int plateau = 0; plateau < 8; ++plateau) {
    // Even plateaus sit well inside the spread bar, odd ones straddle it.
    const double noise = (plateau % 2 == 0) ? 0.005 : 0.03;
    for (; t < 2.0 * (plateau + 1); t += 0.002) {
      samples.push_back({t, level + rng.normal(0.0, noise)});
    }
    level += rng.uniform(-0.5, 0.5);
  }
  const std::size_t stable = expect_matches_oracle({}, samples);
  EXPECT_GT(stable, 0u);
  EXPECT_LT(stable, samples.size() / 2);
}

TEST(StabilityOracleTest, RepeatedEqualTimestamps) {
  util::Rng rng(11);
  std::vector<Sample> samples;
  for (int i = 0; i < 6000; ++i) {
    // Four frames share every timestamp.
    const double t = 0.004 * static_cast<double>(i / 4);
    samples.push_back({t, 0.1 + rng.normal(0.0, 0.01) +
                              ((i / 1500) % 2 == 0 ? 0.0 : 0.05 * t)});
  }
  EXPECT_GT(expect_matches_oracle({}, samples), 0u);
}

TEST(StabilityOracleTest, DuplicatePhases) {
  // Phases on a coarse grid, so the window holds many equal minima and
  // maxima at once.
  util::Rng rng(13);
  std::vector<Sample> samples;
  double level = 0.0;
  for (double t = 0.0; t < 10.0; t += 0.002) {
    level += rng.normal(0.0, 0.002);
    samples.push_back({t, std::round(level / 0.02) * 0.02});
  }
  EXPECT_GT(expect_matches_oracle({}, samples), 0u);
}

TEST(StabilityOracleTest, SamplesExactlyWindowApart) {
  // Binary-exact timestamps: the sample at exactly t - window_s stays in
  // the window (eviction is strict), one step later it leaves.
  StablePhaseDetector::Config cfg;
  cfg.window_s = 1.0;
  cfg.min_samples = 3;
  cfg.max_spread_rad = 0.25;
  std::vector<Sample> samples;
  for (int i = 0; i < 400; ++i) {
    const double t = 0.125 * static_cast<double>(i);
    // A period-11 sawtooth over a 9-sample window: the spread drifts
    // across the bar as the extremes enter and leave.
    samples.push_back({t, 0.03 * static_cast<double>(i % 11)});
  }
  const std::size_t stable = expect_matches_oracle(cfg, samples);
  EXPECT_GT(stable, 0u);
  EXPECT_LT(stable, samples.size());
}

TEST(StabilityOracleTest, ResetMidStream) {
  // A session restart mid-stream is a fresh detector on the tail of the
  // stream: level steps after the restarts must still match the oracle.
  util::Rng rng(17);
  std::vector<Sample> samples;
  for (double t = 0.0; t < 12.0; t += 0.002) {
    const double level = t < 5.0 ? 0.3 : (t < 8.0 ? 0.6 : 0.1);
    samples.push_back({t, level + rng.normal(0.0, 0.005)});
  }
  EXPECT_GT(expect_matches_oracle({}, samples, {0, 1, 1000, 2000, 2001, 4500}),
            0u);
}

TEST(StabilityOracleTest, JitteredOutOfOrderTimestamps) {
  // Eviction pops a prefix of the window in arrival order, so a late
  // sample can sit behind a newer one; the spread must still cover
  // exactly the samples the window holds.
  util::Rng rng(19);
  std::vector<Sample> samples;
  for (int i = 0; i < 5000; ++i) {
    const double t = 0.002 * static_cast<double>(i) + rng.uniform(-0.3, 0.3);
    samples.push_back({t, 0.1 + rng.normal(0.0, 0.012)});
  }
  EXPECT_GT(expect_matches_oracle({}, samples), 0u);
}

}  // namespace
}  // namespace vihot::core
