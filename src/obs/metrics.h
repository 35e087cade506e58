// Allocation-free runtime metrics: lock-free counters and fixed-bucket
// histograms, plus a Registry that names them and snapshots everything
// to JSON or CSV.
//
// Design constraints (these are serving-path primitives, not a stats
// toolkit):
//
//   * increments are wait-free relaxed atomics — safe from any thread,
//     including every WorkerPool worker and producer thread at once;
//   * a Histogram's buckets are fixed at construction (bounded storage,
//     no per-observation allocation) the way Prometheus client
//     histograms work;
//   * the Registry is a naming directory over externally-owned metrics
//     (the fixed structs of sink.h, attached by name); it owns none;
//   * snapshots are read-only and tolerate concurrent writers — the
//     numbers are a consistent-enough view for telemetry, not a
//     linearizable cut.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace vihot::obs {

/// Monotonic event counter; wait-free increments.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket histogram: bucket upper bounds are set at construction,
/// observations are lock-free, and count/sum/min/max ride along so a
/// snapshot can report means and extremes without the raw stream.
class Histogram {
 public:
  /// Bounded storage: at most this many finite upper bounds (an implicit
  /// +inf overflow bucket always exists on top).
  static constexpr std::size_t kMaxBuckets = 16;

  /// `bounds` are ascending finite upper bounds; observations land in the
  /// first bucket whose bound is >= x, or the overflow bucket. More than
  /// kMaxBuckets bounds are truncated.
  Histogram(std::initializer_list<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Mean of all observations (0 when empty).
  [[nodiscard]] double mean() const noexcept;
  /// Smallest / largest observation (0 when empty).
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;

  /// Number of finite buckets (the +inf bucket is index num_bounds()).
  [[nodiscard]] std::size_t num_bounds() const noexcept { return n_; }
  [[nodiscard]] double bound(std::size_t i) const noexcept {
    return bounds_[i];
  }
  /// Per-bucket observation count; index num_bounds() is the overflow.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset() noexcept;

 private:
  std::size_t n_ = 0;
  std::array<double, kMaxBuckets> bounds_{};
  std::array<std::atomic<std::uint64_t>, kMaxBuckets + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Names metrics and snapshots them. Attached metrics must outlive the
/// registry.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers externally-owned metrics under `name` (no ownership).
  void attach(const std::string& name, const Counter& c);
  void attach(const std::string& name, const Histogram& h);

  /// One JSON object: {"counters": {...}, "histograms": {...}}.
  void write_json(std::ostream& os) const;
  /// Flat CSV: kind,name,field,value — one line per scalar.
  void write_csv(std::ostream& os) const;

 private:
  struct Entry {
    std::string name;
    const Counter* counter = nullptr;      // exactly one of these
    const Histogram* histogram = nullptr;  // is non-null
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace vihot::obs
