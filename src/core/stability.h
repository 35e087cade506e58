// Stable-phase detection (Sec. 3.4.1).
//
// "Drivers have to always focus on the road in front for safety, and they
// will never keep the neck twisted for a long time" — so whenever the CSI
// phase has been flat for a while, the head is at 0 deg, and the observed
// level phi0_r fingerprints the current head position. This detector finds
// those flat stretches in the streaming phase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

namespace vihot::obs {
struct TrackerStats;
}  // namespace vihot::obs

namespace vihot::core {

/// Highest CSI feed rate (frames/s) a session's sample histories are
/// sized for: 10x the ~500 Hz of a clean simulated link, so no legitimate
/// feed reaches the caps derived from it. A hostile feeder (equal or
/// nanosecond-spaced timestamps) defeats the time-based trims; the caps
/// bound its memory and per-frame work instead.
inline constexpr double kMaxCsiFeedRateHz = 5000.0;

/// Sample cap of a history spanning `span_s` seconds at kMaxCsiFeedRateHz.
/// A non-finite, negative or absurd span (an unvalidated config field)
/// is clamped to [0, 60] s, so the cap is always finite.
[[nodiscard]] std::size_t csi_history_cap(double span_s) noexcept;

/// Streaming flat-segment detector over (t, phase) samples.
class StablePhaseDetector {
 public:
  struct Config {
    /// The phase must stay flat for at least this long.
    double window_s = 1.2;
    /// "Flat" means the peak-to-peak spread within the window is below
    /// this (rad). Thermal noise after subcarrier averaging is well under
    /// it; any real head turn blows way past it.
    double max_spread_rad = 0.08;
    /// Minimum samples in the window before a verdict is possible.
    std::size_t min_samples = 30;
  };

  StablePhaseDetector();
  explicit StablePhaseDetector(const Config& config);

  /// Consumes one sanitized phase sample; returns true if the stream is
  /// currently stable (head facing forward). `t` and `phase` must be
  /// finite: the spread check's monotone deques rely on a total order.
  bool update(double t, double phase);

  [[nodiscard]] bool is_stable() const noexcept { return stable_; }

  /// Samples in the current window (at most the window's sample cap).
  [[nodiscard]] std::size_t window_size() const noexcept {
    return window_.size();
  }

  /// Counts samples dropped past the sample cap into
  /// stats->csi_history_capped (nullptr = off).
  void set_stats(obs::TrackerStats* stats) noexcept { stats_ = stats; }

  /// Mean phase of the current stable window — the phi0_r of Eq. (4).
  /// Only meaningful while is_stable().
  [[nodiscard]] double stable_phase() const noexcept { return mean_; }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  struct Entry {
    double t;
    double phase;
  };
  Config config_;
  std::size_t max_samples_;  ///< window_ sample cap (see csi_history_cap)
  obs::TrackerStats* stats_ = nullptr;  ///< not owned; may be nullptr
  std::deque<Entry> window_;
  // Monotone deques over the samples in window_, tagged with their push
  // sequence number: phases increase front to back in min_q_ (front =
  // window min) and decrease in max_q_ (front = window max), so the
  // spread costs O(1) amortised per update. An entry leaves with its
  // window_ sample: its seq falls below evicted_.
  struct Ranked {
    std::uint64_t seq;
    double phase;
  };
  std::deque<Ranked> min_q_;
  std::deque<Ranked> max_q_;
  std::uint64_t pushed_ = 0;
  std::uint64_t evicted_ = 0;
  bool stable_ = false;
  double mean_ = 0.0;
};

}  // namespace vihot::core
