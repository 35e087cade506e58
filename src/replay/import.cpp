#include "replay/import.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "engine/tracker_engine.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "wifi/trace_io.h"

namespace vihot::replay {

namespace {

/// Feeds the capture through one session and ticks on the import
/// schedule: before each tick, every sample stamped at or before it.
/// Returns why the engine rejected a sample, or "" when it took them all.
std::string track(engine::TrackerEngine& eng, engine::SessionId id,
                  const std::vector<wifi::CsiMeasurement>& csi,
                  const std::vector<imu::ImuSample>& imu) {
  std::size_t ci = 0;
  std::size_t ii = 0;
  const double t_end = csi.back().t;
  const std::string rejected = " is out of order or not finite";
  for (double t = kImportFirstTickS; t < t_end; t += kImportTickS) {
    for (; ci < csi.size() && csi[ci].t <= t; ++ci) {
      if (!eng.push_csi(id, csi[ci])) {
        return "CSI frame " + std::to_string(ci + 1) + rejected;
      }
    }
    for (; ii < imu.size() && imu[ii].t <= t; ++ii) {
      if (!eng.push_imu(id, imu[ii])) {
        return "IMU sample " + std::to_string(ii + 1) + rejected;
      }
    }
    (void)eng.estimate_all(t);
  }
  return {};
}

}  // namespace

std::optional<core::CsiProfile> read_log_profile(const std::string& path,
                                                 std::string* error) {
  const LoadedLog log = LoadedLog::load(path);
  if (!log.ok()) {
    *error = path + ": " + log.error();
    return std::nullopt;
  }
  const std::size_t count = log.summary().profile_hashes.size();
  if (count != 1) {
    *error = path + " holds " + std::to_string(count) +
             " profiles; a calibration log holds exactly one";
    return std::nullopt;
  }
  const auto chunk = std::find_if(
      log.chunks().begin(), log.chunks().end(),
      [](const ChunkView& c) { return c.type == ChunkType::kProfile; });
  Cursor in(chunk->payload, chunk->size);
  core::CsiProfile profile;
  if (!decode_profile(in, &profile) || !in.exhausted()) {
    *error = path + ": malformed profile chunk";
    return std::nullopt;
  }
  return profile;
}

ImportResult import_capture(const std::string& prefix,
                            const std::string& out_path,
                            const std::string& profile_log) {
  ImportResult result;
  std::string why;
  const std::optional<core::CsiProfile> profile =
      read_log_profile(profile_log, &why);
  const auto csi = wifi::read_csi_trace(prefix + ".csi");
  const auto imu = wifi::read_imu_trace(prefix + ".imu");
  const std::string unreadable = " (missing, bad header or malformed row)";
  if (!profile) {
    result.error = why;
  } else if (!csi) {
    result.error = "cannot read " + prefix + ".csi" + unreadable;
  } else if (csi->empty()) {
    result.error = prefix + ".csi holds no CSI frames";
  } else if (!imu) {
    result.error = "cannot read " + prefix + ".imu" + unreadable;
  }
  if (!result.ok()) return result;

  Recorder recorder(Recorder::Config{.path = out_path});
  if (recorder.ok()) {
    // One thread: num_threads 0 ticks inline on the caller.
    engine::TrackerEngine::Config config;
    config.tap = &recorder;
    engine::TrackerEngine eng(config);
    const engine::SessionId id =
        eng.create_session(eng.add_profile(*profile), core::TrackerConfig{});
    why = track(eng, id, *csi, *imu);
  }
  const bool closed = recorder.close();
  const Recorder::Totals totals = recorder.totals();
  if (!closed) {
    result.error = recorder.error();
  } else if (!why.empty()) {
    result.error = prefix + ": " + why;
  } else if (totals.truncated) {
    result.error = "the recorder dropped samples; the log would not replay";
  }
  if (!result.ok()) {
    std::remove(out_path.c_str());
    return result;
  }
  result.csi_frames = totals.csi_frames;
  result.imu_samples = totals.imu_samples;
  result.ticks = totals.ticks;
  return result;
}

}  // namespace vihot::replay
