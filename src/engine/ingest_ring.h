// Bounded lock-free ring buffer for the async ingest tier.
//
// One ring carries one session's one feed stream (CSI or IMU): a single
// producer thread enqueues, the engine's drain step dequeues. The design
// is a Vyukov-style bounded queue — every cell carries a sequence number
// that hands the cell back and forth between the two sides — rather than
// a classic two-index SPSC ring, for one reason: the kDropOldest overload
// policy lets the PRODUCER discard the oldest queued sample to make room,
// which makes the consume side multi-consumer. Per-cell sequencing keeps
// that safe and lock-free; in the common non-overflowing case the ring
// behaves exactly like an SPSC ring (no CAS on the enqueue side at all).
//
// Allocation discipline: the cell array is allocated once at
// construction, and values are COPY-ASSIGNED into cells. For payloads
// with heap parts (wifi::CsiMeasurement's per-antenna vectors),
// copy-assignment reuses the cell's existing capacity, so after every
// cell has been exercised once ("warm-up", one lap of the ring) the push
// path allocates nothing. Consumers read the value in place and must not
// move out of it — stealing a cell's heap buffers would re-introduce an
// allocation on the next lap.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vihot::engine {

/// Largest ring capacity (2^20 cells). Larger requests are clamped to
/// it, which also keeps the power-of-two round-up from overflowing.
inline constexpr std::size_t kMaxIngestCapacity = std::size_t{1} << 20;

template <typename T>
class IngestRing {
 public:
  /// Capacity is rounded up to a power of two and clamped to
  /// kMaxIngestCapacity; 0 keeps it at 0 (a ring that rejects every
  /// push — the "ingest disabled" form).
  explicit IngestRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity && cap < kMaxIngestCapacity) cap <<= 1;
    if (capacity == 0) cap = 0;
    cells_ = std::vector<Cell>(cap);
    mask_ = cap == 0 ? 0 : cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  IngestRing(const IngestRing&) = delete;
  IngestRing& operator=(const IngestRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return cells_.size();
  }

  /// Queued samples (approximate under concurrency; exact when quiescent).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }

  /// Enqueues a copy of `v`; false when the ring is full (or capacity 0).
  /// Single producer only.
  bool try_push(const T& v) {
    if (cells_.empty()) return false;
    const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    if (cell.seq.load(std::memory_order_acquire) != pos) return false;
    cell.value = v;  // copy-assign: reuses the cell's heap capacity
    cell.seq.store(pos + 1, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// kDropOldest push: on a full ring, discards queued samples (oldest
  /// first) until the new one fits. Returns the number displaced.
  /// Single producer only (may race with a draining consumer; per-cell
  /// sequencing arbitrates who gets each sample).
  std::size_t push_displacing(const T& v) {
    if (cells_.empty()) return 0;
    std::size_t displaced = 0;
    while (!try_push(v)) {
      if (try_pop([](const T&) {})) {
        ++displaced;
      }
      // A concurrent drain may have emptied the cell between the failed
      // push and the pop; either way the next lap makes progress.
    }
    return displaced;
  }

  /// Dequeues one sample, passing it BY CONST REFERENCE to `fn` before
  /// the cell is recycled. Safe to call concurrently with the producer
  /// and with push_displacing.
  template <typename Fn>
  bool try_pop(Fn&& fn) {
    if (cells_.empty()) return false;
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) -
                       static_cast<std::int64_t>(pos + 1);
      if (dif < 0) return false;  // empty (or producer mid-write)
      if (dif == 0 && head_.compare_exchange_weak(
                          pos, pos + 1, std::memory_order_relaxed)) {
        fn(static_cast<const T&>(cell.value));
        cell.seq.store(pos + cells_.size(), std::memory_order_release);
        return true;
      }
      // CAS failure refreshed pos; dif > 0 means we raced — reload.
      if (dif > 0) pos = head_.load(std::memory_order_relaxed);
    }
  }

  /// Drains up to `max` queued samples through `fn`; returns the count.
  template <typename Fn>
  std::size_t drain(Fn&& fn, std::size_t max = SIZE_MAX) {
    std::size_t n = 0;
    while (n < max && try_pop(fn)) ++n;
    return n;
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor
};

}  // namespace vihot::engine
