// The metrics sink the tracking pipeline and serving engine write into.
//
// The stats structs are FIXED structs of counters and histograms — no
// names, no maps, no allocation on the increment path — because the
// writers are the per-estimate stage code and the per-frame feed path.
// One Sink may be shared by any number of trackers and one engine (all
// members are thread-safe), which is exactly the fleet deployment: stats
// aggregate across sessions the way error CDFs do.
//
// Each family is declared once, as an X-macro catalog: C(member,
// "suffix") is a Counter, H(member, "suffix", bounds...) a Histogram with
// those bucket bounds. The catalog generates the struct members (in
// catalog order), the exported names and, for the tracker family, the
// plain-value TrackerStatsSnapshot. Adding a metric is one catalog line.
//
// Naming happens only at snapshot time: Sink::attach_to() registers every
// member of all seven families with an obs::Registry under
// "<family>.<suffix>" names, and the registry renders JSON/CSV.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace vihot::obs {

// Catalog expanders: a struct member, and one (suffix, metric) visit.
#define VIHOT_OBS_DECLARE_COUNTER(member, suffix) Counter member;
#define VIHOT_OBS_DECLARE_HISTOGRAM(member, suffix, ...) \
  Histogram member{__VA_ARGS__};
#define VIHOT_OBS_VISIT_COUNTER(member, suffix) visit(suffix, member);
#define VIHOT_OBS_VISIT_HISTOGRAM(member, suffix, ...) visit(suffix, member);

/// Body of a stats struct generated from `CATALOG`: its metrics, and
/// for_each_metric(visit), which calls visit("suffix", metric) for every
/// entry in catalog order.
#define VIHOT_OBS_STATS_BODY(CATALOG)                             \
  CATALOG(VIHOT_OBS_DECLARE_COUNTER, VIHOT_OBS_DECLARE_HISTOGRAM) \
  template <typename Visitor>                                     \
  void for_each_metric(Visitor&& visit) const {                   \
    CATALOG(VIHOT_OBS_VISIT_COUNTER, VIHOT_OBS_VISIT_HISTOGRAM)   \
  }

/// Per-stage decision and quality counters of the ViHOT run-time pipeline
/// (the signals Secs. 3.4-3.6 argue robustness from).
#define VIHOT_OBS_TRACKER_METRICS(C, H)                                   \
  /* Tracker output loop. */                                              \
  C(estimates, "estimates")               /* estimate() calls */          \
  C(mode_csi, "mode_csi")                 /* served in CSI mode */        \
  C(mode_fallback, "mode_fallback")       /* served in camera fallback */ \
  C(csi_out_of_order, "csi_out_of_order") /* stale-timestamp drops */     \
  C(csi_non_finite, "csi_non_finite")     /* NaN/Inf frame drops */       \
                                                                          \
  /* Stage 1: ModeArbiter. */                                             \
  C(fallback_engaged, "fallback_engaged") /* CSI -> camera fallback */    \
  C(fallback_served, "fallback_served")   /* fresh camera angle */        \
  C(fallback_stale, "fallback_stale")     /* no usable camera angle */    \
                                                                          \
  /* Stage 2: WindowAnalyzer regimes. */                                  \
  C(window_flat, "window_flat")                                           \
  C(window_hinted, "window_hinted")                                       \
  C(window_global, "window_global")                                       \
  /* The buffer did not cover a full window yet. */                       \
  C(window_uncovered, "window_uncovered")                                 \
                                                                          \
  /* Stage 3: SlotMatcher. */                                             \
  C(match_attempts, "match_attempts") /* per-neighborhood match calls */  \
  C(match_invalid, "match_invalid")   /* attempts with no candidate */    \
  /* Segment-search prune funnel (dsp::SeriesMatchStats, aggregated per   \
     neighborhood): every candidate the continuity hint allows lands in   \
     exactly one of the pruned/abandoned/evaluated buckets, so            \
       candidates = lb_endpoint + lb_band + abandoned + evaluated         \
     and the prune rate is 1 - evaluated / candidates. */                 \
  C(match_candidates, "match_candidates")                                 \
  C(match_lb_endpoint_pruned, "match_lb_endpoint_pruned")                 \
  C(match_lb_band_pruned, "match_lb_band_pruned")                         \
  C(match_dtw_abandoned, "match_dtw_abandoned")                           \
  C(match_dtw_evaluated, "match_dtw_evaluated")                           \
  /* Hits beyond the retention bar. */                                    \
  C(match_hits_filtered, "match_hits_filtered")                           \
  H(dtw_best_cost, "dtw_best_cost", 0.001, 0.002, 0.005, 0.01, 0.02,      \
    0.05, 0.1, 0.25)                                                      \
  H(dtw_candidates, "dtw_candidates", 0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0,  \
    12.0)                                                                 \
  H(phase_bias_abs, "phase_bias_abs", 0.01, 0.02, 0.05, 0.1, 0.2, 0.4,    \
    0.8)                                                                  \
                                                                          \
  /* Stage 4: RelockPolicy ladder. */                                     \
  C(relock_widen, "relock_widen")       /* widened-hint escalations */    \
  C(relock_global, "relock_global")     /* global-search escalations */   \
  C(relock_accepted, "relock_accepted") /* retries that won the match */  \
  /* Feed gaps wider than stale_window_s that forced a continuity reset   \
     (the tracker re-locks instead of extrapolating across the gap). */   \
  C(stale_window_relocks, "stale_window_relocks")                         \
                                                                          \
  /* Stage 5: TieBreaker. Near-tie winners flipped by continuity. */      \
  C(tie_break_applied, "tie_break_applied")                               \
                                                                          \
  /* Position re-localization (Eq. 4 on stable phases). */                \
  C(stable_phase_locks, "stable_phase_locks")                             \
                                                                          \
  /* Pluggable estimation backends (DESIGN.md §5h), exported under        \
     tracker.backend.*. Frame counters attribute the sanitize stage,      \
     estimate counters the track stage; the remaining counters expose     \
     the alternative backends' internal decisions. */                     \
  /* Frames sanitized by the Eq. 3 / Kalman backend. */                   \
  C(backend_eq3_frames, "backend.eq3_frames")                             \
  C(backend_kalman_frames, "backend.kalman_frames")                       \
  /* CSI-mode ticks served by the DTW / EKF backend. */                   \
  C(backend_dtw_estimates, "backend.dtw_estimates")                       \
  C(backend_ekf_estimates, "backend.ekf_estimates")                       \
  /* Frames lacking the antenna-1 reference: Eq. 3 impossible, degraded   \
     to the raw antenna-0 path instead of reading out of bounds. */       \
  C(sanitizer_antenna_degraded, "backend.antenna_degraded")               \
  /* Per-subcarrier innovations gated; filter restarts after gaps. */     \
  C(kalman_outliers_gated, "backend.kalman_outliers_gated")               \
  C(kalman_state_resets, "backend.kalman_state_resets")                   \
  /* EKF: state propagations (IMU + ticks), CSI matches fused, matches    \
     rejected by the chi^2 gate, covariance-gated global re-locks, and    \
     camera-fallback angles fused. */                                     \
  C(ekf_propagations, "backend.ekf_propagations")                         \
  C(ekf_updates, "backend.ekf_updates")                                   \
  C(ekf_innovation_gated, "backend.ekf_innovation_gated")                 \
  C(ekf_relocks, "backend.ekf_relocks")                                   \
  C(ekf_camera_updates, "backend.ekf_camera_updates")

struct TrackerStats {
  VIHOT_OBS_STATS_BODY(VIHOT_OBS_TRACKER_METRICS)
};

// Snapshot expanders: a counter becomes its value, a histogram its mean.
#define VIHOT_OBS_SNAPSHOT_COUNTER(member, suffix) std::uint64_t member = 0;
#define VIHOT_OBS_SNAPSHOT_HISTOGRAM(member, suffix, ...) \
  double member##_mean = 0.0;

/// Plain-value copy of TrackerStats, for embedding in result structs
/// (TrackerStats itself is atomic and non-copyable): one std::uint64_t
/// per counter and one `<member>_mean` per histogram.
struct TrackerStatsSnapshot {
  VIHOT_OBS_TRACKER_METRICS(VIHOT_OBS_SNAPSHOT_COUNTER,
                            VIHOT_OBS_SNAPSHOT_HISTOGRAM)
};

/// Serving-layer counters of engine::TrackerEngine.
#define VIHOT_OBS_ENGINE_METRICS(C, H)                                      \
  C(batches, "batches")                 /* estimate_all() ticks */          \
  C(batch_estimates, "batch_estimates") /* estimates those ticks served */  \
  H(batch_latency_us, "batch_latency_us", 10, 20, 50, 100, 200, 500,        \
    1000, 2000, 5000, 10000, 20000, 50000)                                  \
                                                                            \
  C(sessions_created, "sessions_created")                                   \
  C(sessions_destroyed, "sessions_destroyed")                               \
  /* Per-session API calls (push/offer/estimate_one/forecast_one/           \
     swap_profile/destroy_session) that named a SessionId the engine        \
     does not serve. A nonzero rate means a caller is racing                \
     destroy_session or holding a stale handle — the lookup failure is      \
     surfaced explicitly (std::optional / false), never as a                \
     value-initialized result. */                                           \
  C(unknown_session, "unknown_session")                                     \
                                                                            \
  /* Mid-drive profile hot-swaps applied (TrackerEngine::swap_profile). */  \
  C(profile_swaps, "profile_swaps")                                         \
                                                                            \
  /* Accepted per-session feeds (feed rate = counter delta / wall time). */ \
  C(csi_frames, "csi_frames")                                               \
  C(imu_samples, "imu_samples")                                             \
  C(camera_frames, "camera_frames")                                         \
  /* Rejected out-of-order feeds (would corrupt the time-series             \
     buffers). */                                                           \
  C(out_of_order_csi, "out_of_order_csi")                                   \
  C(out_of_order_imu, "out_of_order_imu")                                   \
  C(out_of_order_camera, "out_of_order_camera")                             \
  /* Rejected non-finite feeds (NaN/Inf timestamp or payload: a poisoned    \
     sample would propagate through every downstream mean/DTW). */          \
  C(non_finite_csi, "non_finite_csi")                                       \
  C(non_finite_imu, "non_finite_imu")                                       \
  C(non_finite_camera, "non_finite_camera")                                 \
                                                                            \
  /* Inter-frame CSI feed gap per session; max() is the fleet's worst. */   \
  H(csi_feed_gap_ms, "csi_feed_gap_ms", 5, 10, 20, 35, 50, 75, 100, 200,    \
    500)

struct EngineStats {
  VIHOT_OBS_STATS_BODY(VIHOT_OBS_ENGINE_METRICS)
};

/// Async ingest tier counters (engine::SessionIngest behind a FeedRouter).
/// Every overload decision is visible: a sample offered by a producer is
/// either enqueued or counted into exactly one dropped_* bucket, and every
/// enqueued sample is eventually counted by drained_* when the engine's
/// drain step applies it.
#define VIHOT_OBS_INGEST_METRICS(C, H)                                     \
  /* Producer side (TrackerEngine::offer_*). */                            \
  C(csi_enqueued, "csi_enqueued")                                          \
  C(imu_enqueued, "imu_enqueued")                                          \
  /* Incoming CSI rejected on a full ring; queued CSI displaced by newer   \
     samples. */                                                           \
  C(csi_dropped_newest, "csi_dropped_newest")                              \
  C(csi_dropped_oldest, "csi_dropped_oldest")                              \
  C(imu_dropped_newest, "imu_dropped_newest")                              \
  C(imu_dropped_oldest, "imu_dropped_oldest")                              \
  C(block_retries, "block_retries")   /* producer yield spins, kBlock */   \
  C(block_timeouts, "block_timeouts") /* kBlock gave up; sample dropped */ \
  C(high_watermark, "high_watermark") /* enqueues past the mark */         \
                                                                           \
  /* Consumer side (the engine drain step before each batch tick). */      \
  C(drain_passes, "drain_passes") /* per-session drain sweeps */           \
  C(drained_csi, "drained_csi")   /* queued samples applied to trackers */ \
  C(drained_imu, "drained_imu")                                            \
  /* Samples applied per session per drain sweep. */                       \
  H(drain_batch, "drain_batch", 0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512,  \
    1024)                                                                  \
  /* CSI ring depth observed at the start of each drain sweep. */          \
  H(queue_depth_csi, "queue_depth_csi", 0, 4, 8, 16, 32, 64, 128, 256,     \
    512, 1024)

struct IngestStats {
  VIHOT_OBS_STATS_BODY(VIHOT_OBS_INGEST_METRICS)
};

/// Content-addressed profile interning (engine::ProfileStore). Millions
/// of drivers dedupe to thousands of distinct profiles: every intern is
/// either a fresh allocation (interned) or a content-hash hit onto an
/// already-live profile (dedup_hits). Entries are weak — once the last
/// session or caller reference dies the profile is freed, and the next
/// sweep counts the expired entry into evicted.
#define VIHOT_OBS_PROFILE_STORE_METRICS(C, H)                          \
  C(interned, "interned")     /* distinct profiles allocated */        \
  C(dedup_hits, "dedup_hits") /* interns served from a live profile */ \
  C(evicted, "evicted")       /* expired entries swept away */

struct ProfileStoreStats {
  VIHOT_OBS_STATS_BODY(VIHOT_OBS_PROFILE_STORE_METRICS)
};

/// Tracking-as-a-service counters (daemon::Daemon). The connection and
/// subscriber families make the serving surface observable the same way
/// the ingest tier is: every protocol frame is either dispatched or
/// counted into exactly one error bucket, and every per-tick result
/// fan-out either lands in a subscriber queue or is counted into the
/// policy bucket that dropped it.
#define VIHOT_OBS_DAEMON_METRICS(C, H)                                    \
  /* Connection lifecycle (accept loop + reader threads). */              \
  C(connections_accepted, "connections_accepted")                         \
  C(connections_closed, "connections_closed")                             \
  /* Bad CRC / framing / payload; the connection is dropped. */           \
  C(protocol_errors, "protocol_errors")                                   \
  C(frames_rx, "frames_rx") /* well-formed frames dispatched */           \
  C(bytes_rx, "bytes_rx")                                                 \
  C(bytes_tx, "bytes_tx")                                                 \
                                                                          \
  /* Feed ingress (protocol frames mapped onto offer_* / push_camera). */ \
  C(feed_csi, "feed_csi")                                                 \
  C(feed_imu, "feed_imu")                                                 \
  C(feed_camera, "feed_camera")                                           \
  /* An offer_* or push_* call returned false (counted in addition to     \
     the engine's own buckets). */                                        \
  C(feed_rejected, "feed_rejected")                                       \
                                                                          \
  /* Session surface. */                                                  \
  C(sessions_opened, "sessions_opened")                                   \
  C(sessions_closed, "sessions_closed")                                   \
  /* Sessions reaped because their feeder connection died with them       \
     still open (the disconnect-churn path of the soak driver). */        \
  C(sessions_orphaned, "sessions_orphaned")                               \
                                                                          \
  /* Tick + subscriber fan-out. */                                        \
  C(ticks, "ticks") /* kTick frames served (estimate_all runs) */         \
  C(results_fanned_out, "results_fanned_out") /* result frames queued */  \
  C(subscribers_added, "subscribers_added")                               \
  C(subscribers_removed, "subscribers_removed")                           \
  /* Queued result frames displaced; incoming result frames rejected;     \
     kBlock gave up and dropped the frame; the writer hit a dead socket   \
     and the subscriber was reaped. */                                    \
  C(sub_dropped_oldest, "sub_dropped_oldest")                             \
  C(sub_dropped_newest, "sub_dropped_newest")                             \
  C(sub_block_timeouts, "sub_block_timeouts")                             \
  C(sub_send_errors, "sub_send_errors")                                   \
  /* Subscriber queue depth observed at each enqueue. */                  \
  H(sub_queue_depth, "sub_queue_depth", 0, 1, 2, 4, 8, 16, 32, 64, 128,   \
    256)                                                                  \
                                                                          \
  /* Control surface. */                                                  \
  C(health_requests, "health_requests")                                   \
  C(shutdown_requests, "shutdown_requests") /* kShutdown, not SIGTERM */

struct DaemonStats {
  VIHOT_OBS_STATS_BODY(VIHOT_OBS_DAEMON_METRICS)
};

/// Scenario-pack runner counters (scenario::run_pack, DESIGN.md §5l).
/// Per-pack accuracy envelopes are exported here so a fleet of pack
/// runs rolls up the same way tracker/engine stats do: every run ends
/// in exactly one of envelope_pass / envelope_fail, churn is visible as
/// sessions_opened/closed deltas, and the relock histogram is the
/// rideshare-churn latency envelope's raw material.
#define VIHOT_OBS_SCENARIO_METRICS(C, H)                                  \
  C(runs, "runs")                   /* run_pack() invocations done */     \
  C(envelope_pass, "envelope_pass") /* accuracy envelope held */          \
  C(envelope_fail, "envelope_fail") /* at least one envelope breach */    \
  C(sessions_opened, "sessions_opened") /* incl. churn */                 \
  C(sessions_closed, "sessions_closed") /* closed before the run ended */ \
  C(ticks, "ticks")                     /* estimate_all() ticks served */ \
  C(occupants_tracked, "occupants_tracked") /* tracked sessions */        \
  C(occupants_untracked, "occupants_untracked") /* interference only */   \
  /* Relock latency: session open -> first valid estimate (churn). */     \
  H(relock_s, "relock_s", 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0)

struct ScenarioStats {
  VIHOT_OBS_STATS_BODY(VIHOT_OBS_SCENARIO_METRICS)
};

/// Flight-recorder counters (replay::Recorder). A dropped frame means
/// the staging buffer filled while the writer was still flushing the
/// previous one — the log is marked truncated and no longer replays
/// bit-exactly, so staging_drops > 0 is the signal to grow the staging
/// buffer or use faster storage.
#define VIHOT_OBS_RECORDER_METRICS(C, H)                                 \
  C(frames_recorded, "frames_recorded") /* feed + tick chunks staged */  \
  C(bytes_written, "bytes_written")     /* bytes the writer flushed */   \
  C(writer_flushes, "writer_flushes")   /* staging buffers handed off */ \
  C(staging_drops, "staging_drops") /* feed chunks dropped, staging full */

struct RecorderStats {
  VIHOT_OBS_STATS_BODY(VIHOT_OBS_RECORDER_METRICS)
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

  /// Registers every member metric of all seven families with `registry`
  /// under "<prefix><family>.<suffix>" names (tracker, engine, ingest,
  /// profile_store, daemon, replay, scenario). The Sink must outlive the
  /// registry's snapshots.
  void attach_to(Registry& registry, const std::string& prefix = "") const;
};

// The expanders are only needed to generate the structs above; the
// VIHOT_OBS_*_METRICS catalogs stay defined for code that walks them.
#undef VIHOT_OBS_DECLARE_COUNTER
#undef VIHOT_OBS_DECLARE_HISTOGRAM
#undef VIHOT_OBS_VISIT_COUNTER
#undef VIHOT_OBS_VISIT_HISTOGRAM
#undef VIHOT_OBS_STATS_BODY
#undef VIHOT_OBS_SNAPSHOT_COUNTER
#undef VIHOT_OBS_SNAPSHOT_HISTOGRAM

/// Plain-value snapshot of the tracker family (see TrackerStatsSnapshot).
[[nodiscard]] TrackerStatsSnapshot snapshot(const TrackerStats& stats);

}  // namespace vihot::obs
