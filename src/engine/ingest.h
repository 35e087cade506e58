// Async sharded ingest front-end (the decoupling tier between feed
// producers and the tracking core).
//
// The synchronous push_* path makes every producer thread take the
// session mutex and run the tracker's per-sample work (sanitizer,
// stability detector, buffer trim) inline — a phone-rate CSI stream
// stalls whenever its session is mid-estimate. The async tier inverts
// that: producers copy samples into per-session bounded IngestRings and
// return immediately; the engine's drain step batch-applies everything
// queued right before each estimate_all() tick, sharded across ingest
// lanes so the worker pool drains many sessions concurrently (a session
// lives in exactly one lane, so its samples are applied in offer order).
//
// Overload is an explicit policy, never an unbounded buffer:
//
//   kBlock      producer spins (yield) until the drain frees a slot —
//               lossless up to max_block_spins, then counts a timeout
//               and drops the sample instead of deadlocking a fleet
//               whose consumer died;
//   kDropOldest producer displaces the oldest queued sample (freshest
//               data wins — the right default for a tracker, where a
//               newer phase sample supersedes a stale one);
//   kDropNewest producer rejects the incoming sample (queue keeps the
//               contiguous oldest prefix — for consumers that prefer an
//               unbroken series over freshness).
//
// Every decision is counted through obs::IngestStats: enqueues, both
// drop kinds per stream, block retries/timeouts, high-watermark hits,
// and the drain side's batch sizes and observed queue depths.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "camera/camera_tracker.h"
#include "engine/ingest_ring.h"
#include "imu/imu.h"
#include "obs/sink.h"
#include "wifi/csi.h"

namespace vihot::engine {

// Non-finite feed guards: a NaN/Inf timestamp breaks the time-ordered
// buffer invariants (NaN compares false against everything, so it slips
// past the out-of-order check), and a NaN/Inf payload poisons every
// downstream mean and DTW cost. Rejected at the ingest boundary, like
// the out-of-order guard.
[[nodiscard]] inline bool finite_sample(
    const wifi::CsiMeasurement& m) noexcept {
  if (!std::isfinite(m.t)) return false;
  for (const auto& antenna : m.h) {
    for (const std::complex<double>& h : antenna) {
      if (!std::isfinite(h.real()) || !std::isfinite(h.imag())) return false;
    }
  }
  return true;
}
[[nodiscard]] inline bool finite_sample(const imu::ImuSample& s) noexcept {
  return std::isfinite(s.t) && std::isfinite(s.gyro_yaw_rad_s) &&
         std::isfinite(s.accel_lateral_mps2);
}
[[nodiscard]] inline bool finite_sample(
    const camera::CameraTracker::Estimate& e) noexcept {
  return std::isfinite(e.t) && std::isfinite(e.theta);
}

/// What a producer does when a session's ingest ring is full.
enum class OverloadPolicy : std::uint8_t {
  kBlock,       ///< spin-yield until space (bounded by max_block_spins)
  kDropOldest,  ///< displace queued samples; freshest data wins
  kDropNewest,  ///< reject the incoming sample; oldest prefix wins
};

/// Sizing and policy of the per-session ingest rings.
struct IngestConfig {
  /// Ring capacities (rounded up to powers of two, at most
  /// kMaxIngestCapacity). 0 disables the async tier: offer_* falls back
  /// to the synchronous push path.
  std::size_t csi_capacity = 512;
  std::size_t imu_capacity = 512;

  OverloadPolicy policy = OverloadPolicy::kDropOldest;

  /// Ingest lanes the FeedRouter shards sessions across. 0 = one lane
  /// per engine worker thread (minimum 1).
  std::size_t lanes = 0;

  /// Fraction of capacity above which an enqueue counts a high-watermark
  /// event (early congestion signal, before anything is dropped).
  double high_watermark = 0.75;

  /// kBlock gives up (counts a timeout, drops the sample) after this
  /// many yield spins, so a dead consumer cannot wedge its producers.
  std::size_t max_block_spins = 1u << 18;
};

/// One session's bounded ingest queues (one ring per feed stream). Each
/// stream must have a single producer thread at a time — the rings are
/// SPSC on the enqueue side; only the kDropOldest displacement and the
/// engine drain contend on the consume side.
class SessionIngest {
 public:
  SessionIngest(const IngestConfig& config, obs::IngestStats* stats)
      : csi_(config.csi_capacity),
        imu_(config.imu_capacity),
        policy_(config.policy),
        max_block_spins_(config.max_block_spins),
        stats_(stats) {
    csi_mark_ = mark_of(csi_.capacity(), config.high_watermark);
    imu_mark_ = mark_of(imu_.capacity(), config.high_watermark);
  }

  // Enable gating is PER STREAM: `{csi_capacity: 0, imu_capacity: 512}`
  // runs the IMU stream async while CSI degrades to the synchronous push
  // path (and vice versa). A single CSI-only `enabled()` check here used
  // to silently disable the async IMU path — and strand anything a
  // direct SessionIngest user had queued in the IMU ring, because
  // drain() was gated on the same CSI-only predicate.
  [[nodiscard]] bool csi_enabled() const noexcept {
    return csi_.capacity() > 0;
  }
  [[nodiscard]] bool imu_enabled() const noexcept {
    return imu_.capacity() > 0;
  }
  /// Whether ANY stream runs async (a drain sweep can find work).
  [[nodiscard]] bool enabled() const noexcept {
    return csi_enabled() || imu_enabled();
  }

  [[nodiscard]] std::size_t csi_capacity() const noexcept {
    return csi_.capacity();
  }
  [[nodiscard]] std::size_t imu_capacity() const noexcept {
    return imu_.capacity();
  }
  [[nodiscard]] std::size_t csi_depth() const noexcept { return csi_.size(); }
  [[nodiscard]] std::size_t imu_depth() const noexcept { return imu_.size(); }

  /// Enqueues one sample; false when the overload policy dropped it (the
  /// kDropOldest policy never rejects the incoming sample). Single
  /// producer per stream.
  bool offer_csi(const wifi::CsiMeasurement& m) {
    return offer(csi_, m, csi_mark_, stats_ ? &stats_->csi_enqueued : nullptr,
                 stats_ ? &stats_->csi_dropped_newest : nullptr,
                 stats_ ? &stats_->csi_dropped_oldest : nullptr);
  }
  bool offer_imu(const imu::ImuSample& s) {
    return offer(imu_, s, imu_mark_, stats_ ? &stats_->imu_enqueued : nullptr,
                 stats_ ? &stats_->imu_dropped_newest : nullptr,
                 stats_ ? &stats_->imu_dropped_oldest : nullptr);
  }

  /// Applies everything queued through the callbacks (CSI first, then
  /// IMU — streams are independent downstream, like the sync push path).
  /// Each sweep is bounded at two ring laps per stream so one firehose
  /// producer cannot starve the batch tick. One drainer at a time per
  /// session (the engine drains under the session lock).
  template <typename CsiFn, typename ImuFn>
  std::size_t drain(CsiFn&& on_csi, ImuFn&& on_imu) {
    if (!enabled()) return 0;
    if (stats_ != nullptr) {
      stats_->drain_passes.inc();
      stats_->queue_depth_csi.observe(static_cast<double>(csi_.size()));
    }
    const std::size_t nc = csi_.drain(on_csi, 2 * csi_.capacity());
    const std::size_t ni = imu_.drain(on_imu, 2 * imu_.capacity());
    if (stats_ != nullptr) {
      stats_->drained_csi.inc(nc);
      stats_->drained_imu.inc(ni);
      stats_->drain_batch.observe(static_cast<double>(nc + ni));
    }
    return nc + ni;
  }

 private:
  static std::size_t mark_of(std::size_t capacity, double fraction) {
    if (capacity == 0) return 0;
    const auto mark = static_cast<std::size_t>(
        static_cast<double>(capacity) * fraction);
    return mark == 0 ? 1 : mark;
  }

  template <typename T>
  bool offer(IngestRing<T>& ring, const T& v, std::size_t mark,
             obs::Counter* enqueued, obs::Counter* dropped_newest,
             obs::Counter* dropped_oldest) {
    if (stats_ != nullptr && ring.size() >= mark) {
      stats_->high_watermark.inc();
    }
    switch (policy_) {
      case OverloadPolicy::kDropNewest:
        if (!ring.try_push(v)) {
          if (dropped_newest != nullptr) dropped_newest->inc();
          return false;
        }
        break;
      case OverloadPolicy::kDropOldest: {
        const std::size_t displaced = ring.push_displacing(v);
        if (displaced > 0 && dropped_oldest != nullptr) {
          dropped_oldest->inc(displaced);
        }
        break;
      }
      case OverloadPolicy::kBlock: {
        std::size_t spins = 0;
        while (!ring.try_push(v)) {
          if (++spins > max_block_spins_) {
            if (stats_ != nullptr) stats_->block_timeouts.inc();
            if (dropped_newest != nullptr) dropped_newest->inc();
            return false;
          }
          if (stats_ != nullptr) stats_->block_retries.inc();
          std::this_thread::yield();
        }
        break;
      }
    }
    if (enqueued != nullptr) enqueued->inc();
    return true;
  }

  IngestRing<wifi::CsiMeasurement> csi_;
  IngestRing<imu::ImuSample> imu_;
  OverloadPolicy policy_;
  std::size_t max_block_spins_;
  std::size_t csi_mark_ = 0;
  std::size_t imu_mark_ = 0;
  obs::IngestStats* stats_ = nullptr;  ///< not owned; may be nullptr
};

/// Shards sessions across ingest lanes. A session lives in exactly one
/// lane (so one drainer sweeps it per pass, preserving offer order), and
/// the engine fans the lanes across its worker pool. Mutation happens
/// under the engine's exclusive roster lock; lane reads happen under the
/// shared one.
template <typename Session>
class FeedRouter {
 public:
  explicit FeedRouter(std::size_t num_lanes)
      : lanes_(num_lanes == 0 ? 1 : num_lanes) {}

  [[nodiscard]] std::size_t num_lanes() const noexcept {
    return lanes_.size();
  }

  /// Stable id -> lane shard (Fibonacci mix, so sequential ids spread
  /// evenly for any lane count).
  [[nodiscard]] std::size_t lane_of(std::uint64_t id) const noexcept {
    const std::uint64_t h = id * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> 33) % lanes_.size();
  }

  void assign(std::uint64_t id, Session* session) {
    lanes_[lane_of(id)].push_back(session);
  }
  void remove(std::uint64_t id, Session* session) {
    std::vector<Session*>& lane = lanes_[lane_of(id)];
    for (auto it = lane.begin(); it != lane.end(); ++it) {
      if (*it == session) {
        lane.erase(it);
        return;
      }
    }
  }

  [[nodiscard]] const std::vector<Session*>& lane(std::size_t l) const {
    return lanes_[l];
  }

 private:
  std::vector<std::vector<Session*>> lanes_;
};

}  // namespace vihot::engine
