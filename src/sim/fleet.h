// Fleet serving through one engine::TrackerEngine: N simulated drives
// advancing on a common timeline, one fleet-wide estimate_all() per
// evaluation tick.
//
// The per-session physics and streams are derived exactly like
// ExperimentRunner::run_session (same rng derivation per session index),
// so the fleet's error statistics are comparable with the sequential
// runner; what changes is WHO schedules the matcher work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/record_tap.h"
#include "obs/sink.h"
#include "sim/experiment.h"
#include "sim/fault_injector.h"

namespace vihot::sim {

/// Outcome of one fleet run.
struct FleetResult {
  ErrorCollector errors;      ///< merged ViHOT angular errors (deg)
  std::size_t sessions = 0;
  std::size_t ticks = 0;      ///< estimate_all() batch ticks served
  double serve_wall_s = 0.0;  ///< wall clock of the feed + tick loop
  /// sessions * ticks / serve_wall_s: the fleet-serving throughput.
  double session_estimates_per_s = 0.0;
  double mean_fallback_fraction = 0.0;

  // Observability rollup (from the run's obs::Sink).
  obs::TrackerStatsSnapshot stage_stats{};  ///< fleet-wide stage counters
  std::vector<std::uint64_t> worker_items;  ///< per-worker items drained
  std::uint64_t out_of_order_feeds = 0;     ///< rejected stale samples
  double max_csi_feed_gap_ms = 0.0;         ///< worst per-session gap
  double mean_batch_latency_us = 0.0;       ///< mean estimate_all() time

  // Fault-injection and async-ingest rollup (zero when neither is on).
  FaultInjector::Report faults{};           ///< what the injector did
  std::uint64_t non_finite_feeds = 0;       ///< NaN/Inf samples rejected
  std::uint64_t stale_relocks = 0;          ///< gap-recovery resets
  std::uint64_t ingest_enqueued = 0;        ///< samples queued by offer_*
  std::uint64_t ingest_dropped = 0;         ///< overload-policy drops
};

/// Profiles once, then serves `config.runtime_sessions` concurrent drives
/// through one TrackerEngine with `num_threads` workers (0 = inline
/// ticks). When `sink` is non-null the engine and every session report
/// into it (e.g. for --metrics-out); otherwise a run-local sink feeds
/// just the FleetResult rollup. A non-null `tap` records the run (the
/// flight recorder: see src/replay).
[[nodiscard]] FleetResult run_fleet(const ScenarioConfig& config,
                                    std::size_t num_threads,
                                    obs::Sink* sink = nullptr,
                                    engine::RecordTap* tap = nullptr);

}  // namespace vihot::sim
