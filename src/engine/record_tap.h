// RecordTap: the engine-side recording interface of the flight recorder.
//
// TrackerEngine exposes its deterministic boundary — session lifecycle,
// applied feed samples, ticks — through this narrow interface
// so the recording subsystem (src/replay) can capture a live run without
// the engine depending on it. The hooks fire at exactly the points the
// replayer later re-drives:
//
//   on_engine_start       once, from the engine constructor (the knobs
//                         that shape replay: ingest rings + policy);
//   on_session_created /  under the engine's exclusive roster lock, in
//   on_session_destroyed  fleet-mutation order;
//   on_csi / on_imu       at the APPLICATION boundary: under the session
//                         lock, after the NaN/Inf and time-order guards
//                         accepted the sample and it reached the
//                         tracker. For async feeds that is the drain
//                         step, not the offer — a sample the overload
//                         policy dropped was never applied and is never
//                         recorded;
//   on_camera             same application boundary, camera feed;
//   on_tick_end           inside estimate_all(), after the pool run that
//                         drained and estimated every session, with the
//                         results in roster order plus their session
//                         ids. A session's job drains its rings before
//                         estimating it, so every sample this tick's
//                         estimates saw is recorded before the tick;
//                         everything after belongs to the next tick.
//
// Determinism contract: recording at the application boundary makes the
// log the total order the trackers actually consumed, regardless of how
// producer threads raced the ticks — offer-time capture cannot promise
// that, because the offer -> ring -> drain handoff and the tap would
// order independently. The replayer therefore applies every recorded
// sample synchronously (in file order, between the recorded ticks) and
// reproduces the estimates bit-exactly; the live run's overload-policy
// verdicts are baked into which samples appear in the log at all.
//
// Implementations must tolerate concurrent calls: feed hooks fire under
// per-session locks (different sessions in parallel, including from the
// worker pool mid-drain) and race the serialized lifecycle hooks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "camera/camera_tracker.h"
#include "core/profile.h"
#include "core/tracker.h"
#include "engine/ingest.h"
#include "imu/imu.h"
#include "wifi/csi.h"

namespace vihot::engine {

/// The engine-level knobs a replayer must reproduce (ring capacities and
/// overload policy change which samples survive; thread counts do not —
/// every estimate is one serial scan, so results are bit-identical
/// across pool sizes — but are kept so a replay can also reproduce the
/// live scheduling shape).
struct EngineDescriptor {
  std::size_t num_threads = 0;
  IngestConfig ingest{};
};

/// Recording hooks at the engine's deterministic boundary. All feed
/// hooks receive only samples the session actually accepted and applied.
class RecordTap {
 public:
  virtual ~RecordTap() = default;

  virtual void on_engine_start(const EngineDescriptor& desc) = 0;
  virtual void on_session_created(
      std::uint64_t id, const core::TrackerConfig& config,
      const std::shared_ptr<const core::CsiProfile>& profile) = 0;
  virtual void on_session_destroyed(std::uint64_t id) = 0;

  /// `offered` records whether the sample arrived through the async
  /// ring (applied by a drain) or a synchronous push — diagnostic
  /// provenance; replay applies both the same way.
  virtual void on_csi(std::uint64_t id, const wifi::CsiMeasurement& m,
                      bool offered) = 0;
  virtual void on_imu(std::uint64_t id, const imu::ImuSample& s,
                      bool offered) = 0;
  virtual void on_camera(std::uint64_t id,
                         const camera::CameraTracker::Estimate& e) = 0;

  virtual void on_tick_end(double t_now,
                           std::span<const std::uint64_t> session_ids,
                           std::span<const core::TrackResult> results) = 0;
};

}  // namespace vihot::engine
