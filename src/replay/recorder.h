// Recorder: the write side of the flight recorder.
//
// Implements engine::RecordTap and streams every hook into a .vrlog
// file. The hot path (feed + tick hooks) encodes into a pre-reserved
// staging buffer under a short lock — no allocation, no I/O — and a
// background writer thread flushes full buffers to disk. Two buffers
// rotate: while the writer drains one, producers fill the other.
//
// Loss policy: lifecycle and tick chunks are never dropped (they define
// the replay skeleton — the caller briefly blocks on the writer if both
// buffers are busy). Feed chunks, the high-rate traffic, are dropped
// when the staging pair is exhausted; every drop is counted, flips the
// footer's `truncated` flag, and disqualifies the log from bit-exact
// replay.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/record_tap.h"
#include "obs/sink.h"
#include "replay/vrlog.h"

namespace vihot::replay {

class Recorder : public engine::RecordTap {
 public:
  struct Config {
    std::string path;
    /// Capacity of EACH staging buffer. Must comfortably exceed one
    /// feed chunk (~1 KB at 30 subcarriers); the default buys ~1000
    /// frames of slack per rotation.
    std::size_t staging_bytes = 1u << 20;
    /// Optional stats hub; counts land in sink->replay ("replay.*").
    obs::Sink* sink = nullptr;
  };

  /// Cumulative totals, also serialized into the footer chunk.
  struct Totals {
    std::uint64_t csi_frames = 0;
    std::uint64_t imu_samples = 0;
    std::uint64_t camera_frames = 0;
    std::uint64_t ticks = 0;
    std::uint64_t sessions_created = 0;
    std::uint64_t staging_drops = 0;
    bool truncated = false;  ///< any feed chunk was dropped
  };

  explicit Recorder(Config config);
  ~Recorder() override;

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// False when the output file could not be opened or a write failed;
  /// error() says why. Hooks become no-ops once failed.
  [[nodiscard]] bool ok() const;
  [[nodiscard]] std::string error() const;

  // engine::RecordTap.
  void on_engine_start(const engine::EngineDescriptor& desc) override;
  void on_session_created(
      std::uint64_t id, const core::TrackerConfig& config,
      const std::shared_ptr<const core::CsiProfile>& profile) override;
  void on_session_destroyed(std::uint64_t id) override;
  void on_csi(std::uint64_t id, const wifi::CsiMeasurement& m,
              bool offered) override;
  void on_imu(std::uint64_t id, const imu::ImuSample& s,
              bool offered) override;
  void on_camera(std::uint64_t id,
                 const camera::CameraTracker::Estimate& e) override;
  void on_tick_end(double t_now, std::span<const std::uint64_t> session_ids,
                   std::span<const core::TrackResult> results) override;

  /// Flushes staged chunks, appends the footer, stops the writer thread
  /// and closes the file. Idempotent; returns ok(). Called by the
  /// destructor if the owner did not.
  bool close();

  [[nodiscard]] Totals totals() const;

 private:
  /// Makes room for `n` more staged bytes. Control chunks (`must`)
  /// always succeed — they rotate buffers and wait for the writer if
  /// needed; feed chunks return false (drop) instead of waiting.
  bool ensure_fit(std::unique_lock<std::mutex>& lk, std::size_t n,
                  bool must);
  void rotate_locked(std::unique_lock<std::mutex>& lk);
  void writer_loop();

  Config config_;
  obs::RecorderStats* stats_ = nullptr;  ///< null when no sink given

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals the writer: buffer ready
  std::condition_variable space_cv_;  ///< signals producers: writer idle
  std::vector<unsigned char> active_;    ///< buffer being staged into
  std::vector<unsigned char> inflight_;  ///< buffer the writer is flushing
  bool writer_busy_ = false;
  bool stop_ = false;
  bool closed_ = false;
  std::string error_;
  Totals totals_;
  /// Profiles already interned into the log: address -> content hash.
  std::unordered_map<const core::CsiProfile*, std::uint32_t> profile_hashes_;
  std::vector<unsigned char> scratch_;  ///< cold-path encode buffer

  std::FILE* file_ = nullptr;
  std::thread writer_;
};

}  // namespace vihot::replay
