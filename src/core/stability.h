// Stable-phase detection (Sec. 3.4.1).
//
// "Drivers have to always focus on the road in front for safety, and they
// will never keep the neck twisted for a long time" — so whenever the CSI
// phase has been flat for a while, the head is at 0 deg, and the observed
// level phi0_r fingerprints the current head position. This detector finds
// those flat stretches in the streaming phase.
#pragma once

#include <cstdint>
#include <deque>

namespace vihot::core {

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

  /// Mean phase of the current stable window — the phi0_r of Eq. (4).
  /// Only meaningful while is_stable().
  [[nodiscard]] double stable_phase() const noexcept { return mean_; }

  void reset();

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  struct Entry {
    double t;
    double phase;
  };
  Config config_;
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
