// Timestamped scalar series.
//
// CSI phase arrives at irregular instants (WiFi CSMA randomizes the
// inter-frame spacing, Sec. 3.4.3), so the raw capture type keeps explicit
// timestamps. The matching pipeline later resamples to a uniform grid
// (dsp/resampler.h). `UniformSeries` is that resampled form.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace vihot::util {

/// A single timestamped sample.
struct Sample {
  double t = 0.0;      ///< seconds
  double value = 0.0;  ///< unit depends on the producer (rad, deg, ...)
};

/// Append-only series of (time, value) pairs with non-decreasing time.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Appends a sample; `t` must be >= the last timestamp.
  void push(double t, double value);

  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] const Sample& operator[](std::size_t i) const noexcept {
    return samples_[i];
  }
  [[nodiscard]] const Sample& front() const noexcept {
    return samples_.front();
  }
  [[nodiscard]] const Sample& back() const noexcept { return samples_.back(); }
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }

  /// Time covered, 0 if fewer than two samples.
  [[nodiscard]] double duration() const noexcept;

  /// Linear interpolation of the value at time `t`, clamped to the ends.
  /// Precondition: non-empty.
  [[nodiscard]] double interpolate(double t) const noexcept;

  /// Copies the samples with t in [t0, t1] into a new series.
  [[nodiscard]] TimeSeries slice(double t0, double t1) const;

  /// Index of the first sample with timestamp >= t (size() if none).
  [[nodiscard]] std::size_t lower_bound(double t) const noexcept;

  /// Smallest and largest value among the samples with t in [t0, t1].
  /// One binary search plus a single pass over the covered range — the
  /// hot-path replacement for slicing or hand-rolled rescans (the tracker
  /// calls this per estimate() to classify the window regime).
  /// nullopt when no sample falls inside the range.
  struct MinMax {
    double min = 0.0;
    double max = 0.0;
    [[nodiscard]] double spread() const noexcept { return max - min; }
  };
  [[nodiscard]] std::optional<MinMax> minmax_in(double t0,
                                                double t1) const noexcept;

  /// Columns split out for numeric routines.
  [[nodiscard]] std::vector<double> times() const;
  [[nodiscard]] std::vector<double> values() const;

  /// Removes the oldest `n` samples (all of them when n >= size()).
  void drop_front(std::size_t n) noexcept;

  void clear() noexcept { samples_.clear(); }
  void reserve(std::size_t n) { samples_.reserve(n); }

 private:
  std::vector<Sample> samples_;
};

/// A uniformly sampled series: values at t0, t0 + dt, t0 + 2*dt, ...
struct UniformSeries {
  double t0 = 0.0;
  double dt = 0.0;  ///< seconds per sample; > 0 for a valid series
  std::vector<double> values;

  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
  [[nodiscard]] bool empty() const noexcept { return values.empty(); }
  /// Timestamp of sample i.
  [[nodiscard]] double time_at(std::size_t i) const noexcept {
    return t0 + dt * static_cast<double>(i);
  }
  /// Timestamp of the final sample; t0 if empty.
  [[nodiscard]] double end_time() const noexcept {
    return values.empty() ? t0 : time_at(values.size() - 1);
  }
  /// Linear interpolation at time t, clamped to the ends. Precondition:
  /// non-empty.
  [[nodiscard]] double interpolate(double t) const noexcept;
};

}  // namespace vihot::util
