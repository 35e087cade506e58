// The metrics sink the tracking pipeline and serving engine write into.
//
// TrackerStats / EngineStats are FIXED structs of counters and
// histograms — no names, no maps, no allocation on the increment path —
// because the writers are the per-estimate stage code and the per-frame
// feed path. One Sink may be shared by any number of trackers and one
// engine (all members are thread-safe), which is exactly the fleet
// deployment: stats aggregate across sessions the way error CDFs do.
//
// Naming happens only at snapshot time: Sink::attach_to() registers every
// member with an obs::Registry under canonical "tracker.*" / "engine.*"
// names, and the registry renders JSON/CSV.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace vihot::obs {

/// Per-stage decision and quality counters of the ViHOT run-time pipeline
/// (the signals Secs. 3.4-3.6 argue robustness from).
struct TrackerStats {
  // Tracker output loop.
  Counter estimates;       ///< estimate() calls
  Counter mode_csi;        ///< estimates served in CSI mode
  Counter mode_fallback;   ///< estimates served in camera-fallback mode
  Counter csi_out_of_order;  ///< CSI frames dropped for stale timestamps

  // Stage 1: ModeArbiter.
  Counter fallback_engaged;  ///< CSI -> camera-fallback transitions
  Counter fallback_served;   ///< fallback ticks with a fresh camera angle
  Counter fallback_stale;    ///< fallback ticks with no usable camera angle

  // Stage 2: WindowAnalyzer regimes.
  Counter window_flat;
  Counter window_hinted;
  Counter window_global;
  Counter window_uncovered;  ///< buffer did not cover a full window yet

  // Stage 3: SlotMatcher.
  Counter match_attempts;  ///< per-slot-neighborhood match calls
  Counter match_invalid;   ///< attempts with no valid candidate
  // Segment-search prune funnel (dsp::SeriesMatchStats, aggregated per
  // neighborhood): every candidate past the filter lands in exactly one
  // of the pruned/abandoned/evaluated buckets, so
  //   candidates = lb_endpoint + lb_band + abandoned + evaluated
  // and the prune rate is 1 - evaluated / candidates.
  Counter match_candidates;
  Counter match_lb_endpoint_pruned;
  Counter match_lb_band_pruned;
  Counter match_dtw_abandoned;
  Counter match_dtw_evaluated;
  Counter match_hits_filtered;  ///< hits beyond the retention bar
  Histogram dtw_best_cost{0.001, 0.002, 0.005, 0.01,
                          0.02,  0.05,  0.1,   0.25};
  Histogram dtw_candidates{0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0};
  Histogram phase_bias_abs{0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8};

  // Stage 4: RelockPolicy ladder.
  Counter relock_widen;     ///< widened-hint escalations fired
  Counter relock_global;    ///< global-search escalations fired
  Counter relock_accepted;  ///< retries that replaced the original match
  /// Feed gaps wider than stale_window_s that forced a continuity reset
  /// (the tracker re-locks instead of extrapolating across the gap).
  Counter stale_window_relocks;

  // Stage 5: TieBreaker.
  Counter tie_break_applied;  ///< near-tie winners flipped by continuity

  // Position re-localization (Eq. 4 on stable phases).
  Counter stable_phase_locks;

  // Pluggable estimation backends (DESIGN.md §5h), attached under
  // tracker.backend.*. Frame counters attribute the sanitize stage,
  // estimate counters the track stage; the remaining counters expose the
  // alternative backends' internal decisions.
  Counter backend_eq3_frames;     ///< frames sanitized by the Eq. 3 backend
  Counter backend_kalman_frames;  ///< frames sanitized by the Kalman backend
  Counter backend_dtw_estimates;  ///< CSI-mode ticks served by the DTW backend
  Counter backend_ekf_estimates;  ///< CSI-mode ticks served by the EKF backend
  /// Frames lacking the antenna-1 reference: Eq. 3 impossible, degraded
  /// to the raw antenna-0 path instead of reading out of bounds.
  Counter sanitizer_antenna_degraded;
  Counter kalman_outliers_gated;  ///< per-subcarrier innovations gated
  Counter kalman_state_resets;    ///< filter restarts after coast gaps
  Counter ekf_propagations;       ///< state propagations (IMU + ticks)
  Counter ekf_updates;            ///< CSI matches fused into the state
  Counter ekf_innovation_gated;   ///< matches rejected by the chi^2 gate
  Counter ekf_relocks;            ///< covariance-gated global re-locks
  Counter ekf_camera_updates;     ///< camera-fallback angles fused
};

/// Plain-value copy of the TrackerStats counters, for embedding in result
/// structs (TrackerStats itself is atomic and non-copyable).
struct TrackerStatsSnapshot {
  std::uint64_t estimates = 0;
  std::uint64_t mode_csi = 0;
  std::uint64_t mode_fallback = 0;
  std::uint64_t csi_out_of_order = 0;
  std::uint64_t fallback_engaged = 0;
  std::uint64_t window_flat = 0;
  std::uint64_t window_hinted = 0;
  std::uint64_t window_global = 0;
  std::uint64_t window_uncovered = 0;
  std::uint64_t match_attempts = 0;
  std::uint64_t match_invalid = 0;
  std::uint64_t match_candidates = 0;
  std::uint64_t match_lb_endpoint_pruned = 0;
  std::uint64_t match_lb_band_pruned = 0;
  std::uint64_t match_dtw_abandoned = 0;
  std::uint64_t match_dtw_evaluated = 0;
  std::uint64_t match_hits_filtered = 0;
  std::uint64_t relock_widen = 0;
  std::uint64_t relock_global = 0;
  std::uint64_t relock_accepted = 0;
  std::uint64_t stale_window_relocks = 0;
  std::uint64_t tie_break_applied = 0;
  std::uint64_t stable_phase_locks = 0;
  std::uint64_t backend_eq3_frames = 0;
  std::uint64_t backend_kalman_frames = 0;
  std::uint64_t backend_dtw_estimates = 0;
  std::uint64_t backend_ekf_estimates = 0;
  std::uint64_t sanitizer_antenna_degraded = 0;
  std::uint64_t kalman_outliers_gated = 0;
  std::uint64_t kalman_state_resets = 0;
  std::uint64_t ekf_propagations = 0;
  std::uint64_t ekf_updates = 0;
  std::uint64_t ekf_innovation_gated = 0;
  std::uint64_t ekf_relocks = 0;
  std::uint64_t ekf_camera_updates = 0;
  double dtw_best_cost_mean = 0.0;
};

/// Serving-layer counters of engine::TrackerEngine.
struct EngineStats {
  Counter batches;          ///< estimate_all() ticks
  Counter batch_estimates;  ///< session estimates served by those ticks
  Histogram batch_latency_us{10,    20,    50,     100,    200,  500,
                             1000,  2000,  5000,   10000,  20000, 50000};

  Counter sessions_created;
  Counter sessions_destroyed;
  /// Per-session API calls (push/offer/estimate_one/forecast_one/
  /// swap_profile/destroy_session) that named a SessionId the engine does not serve. A nonzero rate means a
  /// caller is racing destroy_session or holding a stale handle — the
  /// lookup failure is surfaced explicitly (std::optional / false), never
  /// as a value-initialized result.
  Counter unknown_session;

  /// Mid-drive profile hot-swaps applied (TrackerEngine::swap_profile).
  Counter profile_swaps;

  // Accepted per-session feeds (feed rate = counter delta / wall time).
  Counter csi_frames;
  Counter imu_samples;
  Counter camera_frames;
  // Rejected out-of-order feeds (would corrupt the time-series buffers).
  Counter out_of_order_csi;
  Counter out_of_order_imu;
  Counter out_of_order_camera;
  // Rejected non-finite feeds (NaN/Inf timestamp or payload: a poisoned
  // sample would propagate through every downstream mean/DTW).
  Counter non_finite_csi;
  Counter non_finite_imu;
  Counter non_finite_camera;

  /// Inter-frame CSI feed gap per session; max() is the fleet's worst gap.
  Histogram csi_feed_gap_ms{5, 10, 20, 35, 50, 75, 100, 200, 500};
};

/// Async ingest tier counters (engine::SessionIngest behind a FeedRouter).
/// Every overload decision is visible: a sample offered by a producer is
/// either enqueued or counted into exactly one dropped_* bucket, and every
/// enqueued sample is eventually counted by drained_* when the engine's
/// drain step applies it.
struct IngestStats {
  // Producer side (TrackerEngine::offer_*).
  Counter csi_enqueued;
  Counter imu_enqueued;
  Counter csi_dropped_newest;  ///< incoming CSI rejected on a full ring
  Counter csi_dropped_oldest;  ///< queued CSI displaced by newer samples
  Counter imu_dropped_newest;
  Counter imu_dropped_oldest;
  Counter block_retries;   ///< producer yield spins under kBlock
  Counter block_timeouts;  ///< kBlock gave up; the sample was dropped
  Counter high_watermark;  ///< enqueues that found the ring past the mark

  // Consumer side (the engine drain step before each batch tick).
  Counter drain_passes;  ///< per-session drain sweeps
  Counter drained_csi;   ///< queued samples applied to trackers
  Counter drained_imu;
  /// Samples applied per session per drain sweep.
  Histogram drain_batch{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  /// CSI ring depth observed at the start of each drain sweep.
  Histogram queue_depth_csi{0, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
};

/// Content-addressed profile interning (engine::ProfileStore). Millions
/// of drivers dedupe to thousands of distinct profiles: every intern is
/// either a fresh allocation (interned) or a content-hash hit onto an
/// already-live profile (dedup_hits). Entries are weak — once the last
/// session or caller reference dies the profile is freed, and the next
/// sweep counts the expired entry into evicted.
struct ProfileStoreStats {
  Counter interned;    ///< distinct profiles allocated by the store
  Counter dedup_hits;  ///< interns served from a live identical profile
  Counter evicted;     ///< expired (unreferenced) entries swept away
};

/// Tracking-as-a-service counters (daemon::Daemon). The connection and
/// subscriber families make the serving surface observable the same way
/// the ingest tier is: every protocol frame is either dispatched or
/// counted into exactly one error bucket, and every per-tick result
/// fan-out either lands in a subscriber queue or is counted into the
/// policy bucket that dropped it.
struct DaemonStats {
  // Connection lifecycle (accept loop + reader threads).
  Counter connections_accepted;
  Counter connections_closed;
  Counter protocol_errors;  ///< bad CRC / framing / payload; conn dropped
  Counter frames_rx;        ///< well-formed frames dispatched
  Counter bytes_rx;
  Counter bytes_tx;

  // Feed ingress (protocol frames mapped onto offer_* / push_camera).
  Counter feed_csi;
  Counter feed_imu;
  Counter feed_camera;
  Counter feed_rejected;  ///< offer_*/push_* returned false (counted
                          ///< in addition to the engine's own buckets)

  // Session surface.
  Counter sessions_opened;
  Counter sessions_closed;
  /// Sessions reaped because their feeder connection died with them
  /// still open (the disconnect-churn path of the soak driver).
  Counter sessions_orphaned;

  // Tick + subscriber fan-out.
  Counter ticks;               ///< kTick frames served (estimate_all runs)
  Counter results_fanned_out;  ///< per-subscriber result frames enqueued
  Counter subscribers_added;
  Counter subscribers_removed;
  Counter sub_dropped_oldest;  ///< queued result frames displaced
  Counter sub_dropped_newest;  ///< incoming result frames rejected
  Counter sub_block_timeouts;  ///< kBlock gave up; result frame dropped
  Counter sub_send_errors;     ///< writer hit a dead socket; sub reaped
  /// Subscriber queue depth observed at each enqueue.
  Histogram sub_queue_depth{0, 1, 2, 4, 8, 16, 32, 64, 128, 256};

  // Control surface.
  Counter health_requests;
  Counter shutdown_requests;  ///< kShutdown frames (vs. SIGTERM)
};

/// Scenario-pack runner counters (scenario::run_pack, DESIGN.md §5l).
/// Per-pack accuracy envelopes are exported here so a fleet of pack
/// runs rolls up the same way tracker/engine stats do: every run ends
/// in exactly one of envelope_pass / envelope_fail, churn is visible as
/// sessions_opened/closed deltas, and the relock histogram is the
/// rideshare-churn latency envelope's raw material.
struct ScenarioStats {
  Counter runs;             ///< run_pack() invocations completed
  Counter envelope_pass;    ///< runs whose accuracy envelope held
  Counter envelope_fail;    ///< runs with at least one envelope breach
  Counter sessions_opened;  ///< tracking sessions opened (incl. churn)
  Counter sessions_closed;  ///< sessions closed before the run ended
  Counter ticks;            ///< estimate_all() ticks served
  Counter occupants_tracked;   ///< tracked-occupant sessions evaluated
  Counter occupants_untracked; ///< interference-only occupants simulated
  /// Relock latency: session open -> first valid estimate (churn packs).
  Histogram relock_s{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0};
};

/// Flight-recorder counters (replay::Recorder). A dropped frame means
/// the staging buffer filled while the writer was still flushing the
/// previous one — the log is marked truncated and no longer replays
/// bit-exactly, so staging_drops > 0 is the signal to grow the staging
/// buffer or use faster storage.
struct RecorderStats {
  Counter frames_recorded;  ///< feed + tick chunks staged
  Counter bytes_written;    ///< bytes the writer thread flushed to disk
  Counter writer_flushes;   ///< staging buffers handed to the writer
  Counter staging_drops;    ///< feed chunks dropped on a full staging pair
};

/// Everything the pipeline + engine report, in one shareable hub.
struct Sink {
  TrackerStats tracker;
  EngineStats engine;
  IngestStats ingest;
  ProfileStoreStats profile_store;
  DaemonStats daemon;
  RecorderStats replay;
  ScenarioStats scenario;

  /// Registers every member metric with `registry` under
  /// "<prefix>tracker.*" and "<prefix>engine.*" names. The Sink must
  /// outlive the registry's snapshots.
  void attach_to(Registry& registry, const std::string& prefix = "") const;
};

/// Plain-value snapshot of the tracker family (see TrackerStatsSnapshot).
[[nodiscard]] TrackerStatsSnapshot snapshot(const TrackerStats& stats);

}  // namespace vihot::obs
