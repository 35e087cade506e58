// Scenario-pack runner: materializes a ScenarioSpec against the engine
// tier (DESIGN.md §5l).
//
// run_pack() profiles the pack's cabin once per tracked occupant (the
// driver against the stock scene, every tracked rider against its
// channel::occupant_view antenna weighting), pre-generates the seeded
// feed streams over each occupant's presence window, then serves the
// whole cabin through one TrackerEngine on one common timeline:
// sessions are created the instant their occupant enters and destroyed
// when they leave — rideshare churn drives LIVE session churn against
// the engine, which is exactly what a recording tap captures
// (kSessionStart / kSessionEnd mid-log, the mid-log churn the replayer
// re-drives).
//
// Determinism contract: everything flows from the pack seed through
// labeled util::Rng forks, so the same spec + seed + options produces
// the same estimate sequence — and, with a tap, a byte-identical .vrlog
// (the bit-identity test of the scenario label). The single-threaded
// feed loop, like sim::run_fleet's, is the deterministic boundary;
// worker threads only parallelize the batch estimates, which are
// bit-identical across pool sizes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "engine/record_tap.h"
#include "engine/tracker_engine.h"
#include "obs/sink.h"
#include "scenario/spec.h"
#include "sim/metrics.h"

namespace vihot::scenario {

/// Serving knobs for one pack run (the pack itself stays declarative).
struct RunOptions {
  std::size_t threads = 0;  ///< engine worker threads (0 = inline ticks)
  obs::Sink* sink = nullptr;           ///< nullptr = run-local sink
  engine::RecordTap* tap = nullptr;    ///< flight recorder
  double duration_override_s = 0.0;    ///< >0 rescales the pack duration
  std::uint64_t seed_override = 0;     ///< nonzero replaces the pack seed
};

/// Per-occupant outcome (tracked occupants only accumulate errors).
struct OccupantOutcome {
  std::string name;
  bool tracked = false;
  std::size_t cabin = 0;
  double enter_s = 0.0;
  double leave_s = 0.0;
  sim::ErrorCollector errors;   ///< angular errors (deg), in-event gated
  std::size_t evaluated = 0;    ///< samples that entered the CDF
  /// Session open -> first valid estimate; < 0 = never locked.
  double relock_s = -1.0;
};

/// Outcome of one pack run, with the envelope verdict materialized.
struct ScenarioOutcome {
  std::string pack;
  std::vector<OccupantOutcome> occupants;  ///< cabin-major order
  std::size_t sessions_opened = 0;
  std::size_t sessions_closed = 0;  ///< closed by churn before run end
  std::size_t ticks = 0;
  bool envelope_pass = true;
  std::vector<std::string> envelope_failures;  ///< human-readable breaches

  /// Merged tracked-occupant errors (the pack-level summary line).
  [[nodiscard]] sim::ErrorCollector merged_errors() const;
};

/// Runs one pack end to end. `check_envelope` off skips the verdict
/// (recording runs shorten packs below their min_evaluated floors).
[[nodiscard]] ScenarioOutcome run_pack(const ScenarioSpec& spec,
                                       const RunOptions& options = {},
                                       bool check_envelope = true);

}  // namespace vihot::scenario
