// TrackerEngine: one process, many drivers (fleet serving).
//
// The single-session ViHotTracker is a per-driver state machine over
// shared immutable profile data — which makes fleet serving a scheduling
// problem, not an algorithmic one. The engine owns
//
//   * the profiles, interned through a content-addressed ProfileStore
//     as std::shared_ptr<const CsiProfile>: one profile feeds any number
//     of sessions with zero copies, byte-identical profiles dedupe to a
//     single allocation, and a profile lives exactly as long as a session
//     (or the caller) still references it — the store holds only weak
//     entries, so the engine never pins profiles it no longer serves;
//   * N independent TrackerSessions, addressed by SessionId
//     (create / feed / estimate / destroy);
//   * an async ingest front-end: per-session bounded lock-free rings
//     (offer_csi / offer_imu), applied in batch on each tick;
//   * a fixed WorkerPool running one job per live session on every
//     estimate_all() tick — the job drains that session's rings, then
//     estimates it — with no allocation on the per-tick hot path.
//
// Thread model: every per-session operation locks that session's own
// mutex, so distinct sessions can be fed from distinct producer threads
// while estimate_all() runs; offer_* only touches the session's ingest
// rings (one producer thread per stream per session). Fleet mutation
// (create/destroy) excludes batch ticks; concurrent estimate_all() calls
// serialize.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/tracker.h"
#include "engine/ingest.h"
#include "engine/profile_store.h"
#include "engine/record_tap.h"
#include "engine/worker_pool.h"
#include "obs/sink.h"

namespace vihot::engine {

/// Opaque handle of one tracking session; never reused within an engine.
using SessionId = std::uint64_t;

/// Invalid session handle (never returned by create_session).
inline constexpr SessionId kNoSession = 0;

/// One driver's tracking state inside the engine: a ViHotTracker plus
/// the lock making it safely reachable from producer threads and the
/// worker pool, and the bounded ingest rings of the async feed path.
class TrackerSession {
 public:
  TrackerSession(SessionId id, std::shared_ptr<const core::CsiProfile> profile,
                 const core::TrackerConfig& config,
                 obs::EngineStats* stats = nullptr,
                 const IngestConfig& ingest_config = {},
                 obs::IngestStats* ingest_stats = nullptr,
                 RecordTap* tap = nullptr)
      : id_(id),
        stats_(stats),
        tap_(tap),
        ingest_(ingest_config, ingest_stats),
        tracker_(std::move(profile), config) {}

  [[nodiscard]] SessionId id() const noexcept { return id_; }

  // Synchronous per-stream feeds. Each stream must be fed in
  // nondecreasing time order; a sample older than the stream's last
  // accepted one is rejected (returns false) and counted in the engine
  // stats, instead of silently corrupting the tracker's time-ordered
  // buffers (util::TimeSeries::push only asserts in debug builds).
  // Non-finite samples (NaN/Inf timestamp or payload) are rejected the
  // same way: a NaN timestamp slips past the ordering check (NaN
  // compares false) and a NaN value poisons every downstream mean.
  bool push_csi(const wifi::CsiMeasurement& m) {
    if (!finite_sample(m)) {
      if (stats_ != nullptr) stats_->non_finite_csi.inc();
      return false;
    }
    std::lock_guard<std::mutex> lk(mu_);
    return push_csi_locked(m);
  }
  bool push_imu(const imu::ImuSample& sample) {
    if (!finite_sample(sample)) {
      if (stats_ != nullptr) stats_->non_finite_imu.inc();
      return false;
    }
    std::lock_guard<std::mutex> lk(mu_);
    return push_imu_locked(sample);
  }
  bool push_camera(const camera::CameraTracker::Estimate& estimate) {
    if (!finite_sample(estimate)) {
      if (stats_ != nullptr) stats_->non_finite_camera.inc();
      return false;
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (have_camera_t_ && estimate.t < last_camera_t_) {
      if (stats_ != nullptr) stats_->out_of_order_camera.inc();
      return false;
    }
    if (stats_ != nullptr) stats_->camera_frames.inc();
    // Tap at the application boundary: only accepted samples are
    // recorded, in the exact order the tracker consumes them.
    if (tap_ != nullptr) tap_->on_camera(id_, estimate);
    have_camera_t_ = true;
    last_camera_t_ = estimate.t;
    tracker_.push_camera(estimate);
    return true;
  }

  // Async feeds: validate, then enqueue into the bounded ingest rings
  // for the engine's drain step. Never touches the session mutex — a
  // producer cannot stall on a session that is mid-estimate. One
  // producer thread per stream per session (the rings are SPSC).
  // Returns false when the sample was rejected (non-finite) or dropped
  // by the overload policy. The sync-path fallback is PER STREAM: a
  // stream whose own ring has capacity 0 degrades to the synchronous
  // push, independent of the other stream's capacity.
  bool offer_csi(const wifi::CsiMeasurement& m) {
    if (!finite_sample(m)) {
      if (stats_ != nullptr) stats_->non_finite_csi.inc();
      return false;
    }
    if (!ingest_.csi_enabled()) {
      std::lock_guard<std::mutex> lk(mu_);
      return push_csi_locked(m);
    }
    return ingest_.offer_csi(m);
  }
  bool offer_imu(const imu::ImuSample& sample) {
    if (!finite_sample(sample)) {
      if (stats_ != nullptr) stats_->non_finite_imu.inc();
      return false;
    }
    if (!ingest_.imu_enabled()) {
      std::lock_guard<std::mutex> lk(mu_);
      return push_imu_locked(sample);
    }
    return ingest_.offer_imu(sample);
  }

  /// Batch-applies everything queued by offer_* under the session lock.
  /// Out-of-order samples surfaced by a lossy overload policy are
  /// rejected and counted exactly like on the synchronous path. Called
  /// from the engine's per-session pool job (one drainer per session at
  /// a time).
  std::size_t drain() {
    if (!ingest_.enabled()) return 0;
    std::lock_guard<std::mutex> lk(mu_);
    return ingest_.drain(
        [this](const wifi::CsiMeasurement& m) {
          (void)push_csi_locked(m, /*offered=*/true);
        },
        [this](const imu::ImuSample& s) {
          (void)push_imu_locked(s, /*offered=*/true);
        });
  }

  /// Queued-but-not-yet-applied CSI samples (diagnostics).
  [[nodiscard]] std::size_t csi_queue_depth() const noexcept {
    return ingest_.csi_depth();
  }
  [[nodiscard]] std::size_t imu_queue_depth() const noexcept {
    return ingest_.imu_depth();
  }

  [[nodiscard]] core::TrackResult estimate(double t_now) {
    std::lock_guard<std::mutex> lk(mu_);
    return tracker_.estimate(t_now);
  }

 private:
  // The locked apply paths are the flight recorder's capture point: a
  // sample is recorded iff it is accepted here, in consumption order
  // (offer-time capture would race the drain and mis-bracket samples
  // around tick boundaries — see engine/record_tap.h).
  bool push_csi_locked(const wifi::CsiMeasurement& m, bool offered = false) {
    if (have_csi_t_ && m.t < last_csi_t_) {
      if (stats_ != nullptr) stats_->out_of_order_csi.inc();
      return false;
    }
    if (stats_ != nullptr) {
      stats_->csi_frames.inc();
      if (have_csi_t_) {
        stats_->csi_feed_gap_ms.observe((m.t - last_csi_t_) * 1e3);
      }
    }
    if (tap_ != nullptr) tap_->on_csi(id_, m, offered);
    have_csi_t_ = true;
    last_csi_t_ = m.t;
    tracker_.push_csi(m);
    return true;
  }
  bool push_imu_locked(const imu::ImuSample& sample, bool offered = false) {
    if (have_imu_t_ && sample.t < last_imu_t_) {
      if (stats_ != nullptr) stats_->out_of_order_imu.inc();
      return false;
    }
    if (stats_ != nullptr) stats_->imu_samples.inc();
    if (tap_ != nullptr) tap_->on_imu(id_, sample, offered);
    have_imu_t_ = true;
    last_imu_t_ = sample.t;
    tracker_.push_imu(sample);
    return true;
  }

  SessionId id_;
  obs::EngineStats* stats_ = nullptr;  ///< not owned; may be nullptr
  RecordTap* tap_ = nullptr;           ///< not owned; may be nullptr
  SessionIngest ingest_;
  mutable std::mutex mu_;
  core::ViHotTracker tracker_;

  // Last accepted timestamp per feed stream (under mu_).
  bool have_csi_t_ = false;
  bool have_imu_t_ = false;
  bool have_camera_t_ = false;
  double last_csi_t_ = 0.0;
  double last_imu_t_ = 0.0;
  double last_camera_t_ = 0.0;
};

/// Serves many concurrent tracking sessions against shared profiles.
class TrackerEngine {
 public:
  struct Config {
    /// Threads for estimate_all(), the calling thread included: the pool
    /// spawns num_threads - 1 workers. 0 and 1 run batches inline on the
    /// calling thread (no threads are spawned).
    std::size_t num_threads = 0;

    /// Optional metrics sink (nullptr = observability off). Not owned;
    /// must outlive the engine. Sessions created with a TrackerConfig
    /// whose own sink is null inherit this one, so engine- and
    /// stage-level metrics land in the same hub.
    obs::Sink* sink = nullptr;

    /// Async ingest tier (offer_* / drain). Capacity 0 disables the
    /// rings; offer_* then degrades to the synchronous push path.
    IngestConfig ingest{};

    /// Optional flight-recorder tap capturing the engine's deterministic
    /// boundary (see engine/record_tap.h). Not owned; must outlive the
    /// engine. nullptr = recording off, zero overhead.
    RecordTap* tap = nullptr;
  };

  TrackerEngine() : TrackerEngine(Config{}) {}
  explicit TrackerEngine(const Config& config);

  /// Interns a profile as shared immutable data through the engine's
  /// ProfileStore: byte-identical profiles return the SAME pointer (one
  /// allocation fleet-wide), and the engine keeps no strong reference —
  /// a profile is freed when its last session (or external holder) lets
  /// go. The returned pointer can seed any number of sessions (in this
  /// engine or outside it).
  std::shared_ptr<const core::CsiProfile> add_profile(
      core::CsiProfile profile);

  /// Creates one session against a shared profile. The profile pointer
  /// may come from add_profile() or anywhere else.
  SessionId create_session(std::shared_ptr<const core::CsiProfile> profile,
                           const core::TrackerConfig& config = {});

  /// Destroys a session; returns false for unknown ids (counted as
  /// engine.unknown_session). Samples still queued in the session's
  /// ingest rings are discarded with it.
  bool destroy_session(SessionId id);

  [[nodiscard]] std::size_t session_count() const;

  /// Live session ids in estimate_all() result order.
  [[nodiscard]] std::vector<SessionId> session_ids() const;

  /// Zero-copy view of the same ids, for per-tick consumers (the serving
  /// daemon's result fan-out pairs this with the estimate_all() span on
  /// every tick; the vector-returning form would allocate per tick).
  /// Valid until the next create_session / destroy_session call — the
  /// same rule as the result span, and the same serialization burden on
  /// the caller.
  [[nodiscard]] std::span<const SessionId> session_ids_span() const;

  // Synchronous per-session feeds; return false for unknown ids and for
  // rejected out-of-order or non-finite samples (counted in the sink's
  // engine.unknown_session / engine.out_of_order_* / engine.non_finite_*
  // families). Safe to call from multiple producer threads, including
  // while estimate_all() runs.
  bool push_csi(SessionId id, const wifi::CsiMeasurement& m);
  bool push_imu(SessionId id, const imu::ImuSample& sample);
  bool push_camera(SessionId id,
                   const camera::CameraTracker::Estimate& estimate);

  // Async per-session feeds: enqueue into the session's bounded ingest
  // rings and return without ever taking the session lock; the samples
  // are applied by the drain step right before the next estimate_all()
  // tick (or an explicit drain()). One producer thread per stream per
  // session. Returns false for unknown ids, non-finite samples, and
  // samples dropped by the overload policy (all counted).
  bool offer_csi(SessionId id, const wifi::CsiMeasurement& m);
  bool offer_imu(SessionId id, const imu::ImuSample& sample);

  /// Batch-applies everything queued by offer_* across the fleet, one
  /// pool job per session. Returns the number of samples applied.
  /// estimate_all() drains every session inside its estimate job; call
  /// this directly to bound queue latency between ticks.
  std::size_t drain();

  /// One batch tick: one pool job per live session, which drains that
  /// session's rings and then estimates it at `t_now`. Returns results
  /// in session_ids() order; the span stays valid until the next
  /// estimate_all/create/destroy call. Allocation-free for a stable
  /// fleet (the result buffer is reused).
  std::span<const core::TrackResult> estimate_all(double t_now);

  [[nodiscard]] std::size_t num_threads() const noexcept {
    return pool_.size();
  }

  [[nodiscard]] const IngestConfig& ingest_config() const noexcept {
    return ingest_config_;
  }

  /// Per-thread pool items run by estimate_all() and drain(), one per
  /// session per dispatch (work-stealing balance diagnostics). Slot 0 is
  /// the calling thread, slots 1..num_threads-1 the workers; a single
  /// slot 0 for the inline pools.
  [[nodiscard]] std::vector<std::uint64_t> worker_items_drained() const {
    return pool_.items_drained();
  }

  /// The sink this engine reports into (nullptr when observability off).
  [[nodiscard]] obs::Sink* sink() const noexcept { return sink_; }

 private:
  /// Looks up a session under the roster lock; nullptr when unknown
  /// (counted as engine.unknown_session).
  [[nodiscard]] TrackerSession* find(SessionId id) const;

  /// Quick scan: whether any session has samples queued in its rings
  /// (requires a roster lock held). A fleet fed through the synchronous
  /// path has nothing queued, and its pool jobs skip the rings.
  [[nodiscard]] bool any_queued() const;

  WorkerPool pool_;
  obs::Sink* sink_ = nullptr;  ///< not owned; may be nullptr
  RecordTap* tap_ = nullptr;   ///< not owned; may be nullptr
  IngestConfig ingest_config_{};

  /// Guards the roster (sessions_/roster_/results_ shape).
  /// Shared for per-session access, exclusive for fleet mutation.
  mutable std::shared_mutex roster_mu_;
  std::unordered_map<SessionId, std::unique_ptr<TrackerSession>> sessions_;
  std::vector<TrackerSession*> roster_;  ///< stable batch iteration order
  std::vector<SessionId> roster_ids_;    ///< ids parallel to roster_
  std::vector<core::TrackResult> results_;  ///< reused batch output buffer
  SessionId next_id_ = 1;

  /// Serializes estimate_all() ticks (the pool runs one batch at a time).
  std::mutex batch_mu_;

  /// Content-addressed interning behind add_profile(): weak entries
  /// only, so the engine never extends a profile's lifetime.
  ProfileStore profile_store_;
};

}  // namespace vihot::engine
