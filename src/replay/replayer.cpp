#include "replay/replayer.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "engine/tracker_engine.h"

namespace vihot::replay {

namespace {

std::string render_f64(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string render_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, bits);
  return buf;
}

/// Per-tick comparison context: collects field-level divergences.
struct TickCompare {
  std::uint64_t tick_index;
  double t_now;
  std::uint64_t session_id;
  std::vector<Divergence>* out;
  std::size_t max;

  [[nodiscard]] bool full() const {
    return max != 0 && out->size() >= max;
  }

  void add(const char* field, std::string rec, std::string rep) {
    if (full()) return;
    out->push_back(Divergence{tick_index, t_now, session_id, field,
                              std::move(rec), std::move(rep)});
  }

  void f64(const char* field, double rec, double rep) {
    std::uint64_t rb = 0;
    std::uint64_t pb = 0;
    std::memcpy(&rb, &rec, 8);
    std::memcpy(&pb, &rep, 8);
    if (rb == pb) return;
    std::string rs = render_f64(rec);
    std::string ps = render_f64(rep);
    if (rs == ps) {
      // Same decimal text, different bit patterns (-0.0 vs 0.0, NaN
      // payloads): the bits are the only distinguishing evidence.
      rs += " (" + render_bits(rec) + ")";
      ps += " (" + render_bits(rep) + ")";
    }
    add(field, std::move(rs), std::move(ps));
  }

  void u64(const char* field, std::uint64_t rec, std::uint64_t rep) {
    if (rec == rep) return;
    add(field, std::to_string(rec), std::to_string(rep));
  }

  void boolean(const char* field, bool rec, bool rep) {
    if (rec == rep) return;
    add(field, rec ? "true" : "false", rep ? "true" : "false");
  }
};

void compare_result(TickCompare& cmp, const core::TrackResult& rec,
                    const core::TrackResult& rep) {
  cmp.boolean("valid", rec.valid, rep.valid);
  cmp.f64("t", rec.t, rep.t);
  cmp.f64("theta_rad", rec.theta_rad, rep.theta_rad);
  cmp.u64("mode", static_cast<std::uint64_t>(rec.mode),
          static_cast<std::uint64_t>(rep.mode));
  cmp.u64("position_slot", rec.position_slot, rep.position_slot);
  cmp.boolean("raw.valid", rec.raw.valid, rep.raw.valid);
  cmp.f64("raw.t", rec.raw.t, rep.raw.t);
  cmp.f64("raw.theta_rad", rec.raw.theta_rad, rep.raw.theta_rad);
  cmp.f64("raw.match_distance", rec.raw.match_distance,
          rep.raw.match_distance);
  cmp.f64("raw.runner_up_distance", rec.raw.runner_up_distance,
          rep.raw.runner_up_distance);
  cmp.boolean("raw.runner_up_valid", rec.raw.runner_up_valid,
              rep.raw.runner_up_valid);
  cmp.f64("raw.runner_up_theta_rad", rec.raw.runner_up_theta_rad,
          rep.raw.runner_up_theta_rad);
  cmp.u64("raw.match_start", rec.raw.match_start, rep.raw.match_start);
  cmp.u64("raw.match_length", rec.raw.match_length, rep.raw.match_length);
  cmp.f64("raw.speed_ratio", rec.raw.speed_ratio, rep.raw.speed_ratio);
}

}  // namespace

LoadedLog LoadedLog::load(const std::string& path) {
  LoadedLog log;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    log.error_ = "cannot open " + path;
    return log;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    log.error_ = "cannot stat " + path;
    std::fclose(f);
    return log;
  }
  log.bytes_.resize(static_cast<std::size_t>(size));
  const std::size_t got =
      size == 0 ? 0 : std::fread(log.bytes_.data(), 1, log.bytes_.size(), f);
  std::fclose(f);
  if (got != log.bytes_.size()) {
    log.error_ = "short read on " + path;
    return log;
  }

  ChunkScanner scanner(log.bytes_.data(), log.bytes_.size());
  if (!scanner.valid_header()) {
    log.error_ = scanner.error();
    return log;
  }
  log.summary_.format_version = scanner.format_version();
  bool saw_header = false;
  while (auto chunk = scanner.next()) {
    log.chunks_.push_back(*chunk);
    Cursor in(chunk->payload, chunk->size);
    switch (chunk->type) {
      case ChunkType::kHeader:
        if (!decode_engine_descriptor(in, &log.summary_.engine) ||
            !in.exhausted()) {
          log.error_ = "malformed header chunk";
          return log;
        }
        saw_header = true;
        break;
      case ChunkType::kProfile:
        log.summary_.profile_hashes.push_back(
            crc32(chunk->payload, chunk->size));
        break;
      case ChunkType::kSessionStart:
        log.summary_.session_starts += 1;
        break;
      case ChunkType::kSessionEnd:
        log.summary_.session_ends += 1;
        break;
      case ChunkType::kCsi:
        log.summary_.csi_frames += 1;
        break;
      case ChunkType::kImu:
        log.summary_.imu_samples += 1;
        break;
      case ChunkType::kCamera:
        log.summary_.camera_frames += 1;
        break;
      case ChunkType::kTickBegin:
        log.summary_.ticks += 1;
        break;
      case ChunkType::kTickEnd:
        break;
      case ChunkType::kFooter: {
        in.skip(5 * 8);  // csi, imu, camera, ticks, sessions counts
        log.summary_.staging_drops = in.get_u64();
        log.summary_.truncated = in.get_u8() != 0;
        if (!in.ok()) {
          log.error_ = "malformed footer chunk";
          return log;
        }
        log.summary_.has_footer = true;
        break;
      }
      default:
        log.error_ =
            "unknown chunk type 0x" +
            std::to_string(static_cast<std::uint32_t>(chunk->type));
        return log;
    }
  }
  if (scanner.failed()) {
    log.error_ = scanner.error();
    return log;
  }
  if (!saw_header) log.error_ = "log has no header chunk";
  return log;
}

ReplayResult replay(const LoadedLog& log, const ReplayOptions& options) {
  ReplayResult result;
  if (!log.ok()) {
    result.error = log.error();
    return result;
  }
  if (log.summary().truncated) {
    result.error =
        "log is truncated (staging drops at record time): bit-exact "
        "replay is not defined for it";
    return result;
  }

  // Uniform additive re-basing delta (see ReplayOptions::time_offset):
  // one shared value for every stream, applied as fl(t + delta) — a
  // monotone map, so each stream's recorded order survives and the
  // engine's out-of-order guard never fires on a re-based run.
  const double delta = options.time_offset;
  const bool compare = delta == 0.0;
  result.rebased = !compare;

  engine::TrackerEngine::Config eng_cfg;
  eng_cfg.num_threads = options.num_threads != 0
                            ? options.num_threads
                            : log.summary().engine.num_threads;
  eng_cfg.ingest = log.summary().engine.ingest;
  engine::TrackerEngine eng(eng_cfg);

  // Interned profiles by content hash, registered as engine profiles.
  std::unordered_map<std::uint32_t,
                     std::shared_ptr<const core::CsiProfile>>
      profiles;
  // Recorded session id -> live replay session id.
  std::unordered_map<std::uint64_t, engine::SessionId> live;

  // Replayed outputs of the most recent tick, keyed by replay id.
  std::unordered_map<engine::SessionId, core::TrackResult> last_tick;
  double last_tick_t = 0.0;
  bool tick_open = false;

  const auto fail = [&result](std::string msg) {
    result.error = std::move(msg);
    return result;
  };

  for (const ChunkView& chunk : log.chunks()) {
    Cursor in(chunk.payload, chunk.size);
    switch (chunk.type) {
      case ChunkType::kHeader:
      case ChunkType::kFooter:
        break;
      case ChunkType::kProfile: {
        core::CsiProfile profile;
        if (!decode_profile(in, &profile) || !in.exhausted()) {
          return fail("malformed profile chunk");
        }
        const std::uint32_t hash = crc32(chunk.payload, chunk.size);
        profiles[hash] = eng.add_profile(std::move(profile));
        break;
      }
      case ChunkType::kSessionStart: {
        const std::uint64_t rec_id = in.get_u64();
        const std::uint32_t hash = in.get_u32();
        core::TrackerConfig cfg;
        if (!decode_tracker_config(in, &cfg) || !in.exhausted()) {
          return fail("malformed session-start chunk");
        }
        const auto pit = profiles.find(hash);
        if (pit == profiles.end()) {
          return fail("session references unknown profile hash");
        }
        if (options.config_override != nullptr) {
          cfg = *options.config_override;
        }
        if (options.sanitizer_backend_override) {
          cfg.sanitizer_backend = *options.sanitizer_backend_override;
        }
        if (options.tracker_backend_override) {
          cfg.tracker_backend = *options.tracker_backend_override;
        }
        live[rec_id] = eng.create_session(pit->second, cfg);
        break;
      }
      case ChunkType::kSessionEnd: {
        const std::uint64_t rec_id = in.get_u64();
        const auto it = live.find(rec_id);
        if (!in.ok() || it == live.end()) {
          return fail("malformed or dangling session-end chunk");
        }
        eng.destroy_session(it->second);
        live.erase(it);
        break;
      }
      case ChunkType::kCsi: {
        std::uint64_t rec_id = 0;
        wifi::CsiMeasurement m;
        bool offered = false;
        if (!decode_csi_payload(in, &rec_id, &m, &offered) ||
            !in.exhausted()) {
          return fail("malformed CSI chunk");
        }
        const auto it = live.find(rec_id);
        if (it == live.end()) return fail("CSI chunk for unknown session");
        // The log records samples at the application boundary in
        // consumption order, so replay applies synchronously no matter
        // how the sample originally arrived (the `offered` flag is
        // provenance, not routing — see engine/record_tap.h).
        m.t += delta;
        if (!eng.push_csi(it->second, m)) result.feeds_rejected += 1;
        break;
      }
      case ChunkType::kImu: {
        std::uint64_t rec_id = 0;
        imu::ImuSample s;
        bool offered = false;
        if (!decode_imu_payload(in, &rec_id, &s, &offered) ||
            !in.exhausted()) {
          return fail("malformed IMU chunk");
        }
        const auto it = live.find(rec_id);
        if (it == live.end()) return fail("IMU chunk for unknown session");
        s.t += delta;
        if (!eng.push_imu(it->second, s)) result.feeds_rejected += 1;
        break;
      }
      case ChunkType::kCamera: {
        std::uint64_t rec_id = 0;
        camera::CameraTracker::Estimate e;
        if (!decode_camera_payload(in, &rec_id, &e) || !in.exhausted()) {
          return fail("malformed camera chunk");
        }
        const auto it = live.find(rec_id);
        if (it == live.end()) {
          return fail("camera chunk for unknown session");
        }
        e.t += delta;
        if (!eng.push_camera(it->second, e)) result.feeds_rejected += 1;
        break;
      }
      case ChunkType::kTickBegin: {
        const double t_now = in.get_f64();
        if (!in.ok() || !in.exhausted()) {
          return fail("malformed tick-begin chunk");
        }
        // Re-run the tick NOW: every feed chunk the live tick applied
        // is recorded ahead of this marker, and the ones after its
        // kTickEnd belong to the next tick, exactly as in the recorded
        // run.
        const auto results = eng.estimate_all(t_now + delta);
        const auto ids = eng.session_ids();
        last_tick.clear();
        for (std::size_t i = 0; i < ids.size(); ++i) {
          last_tick[ids[i]] = results[i];
        }
        last_tick_t = t_now + delta;
        tick_open = true;
        break;
      }
      case ChunkType::kTickEnd: {
        if (!tick_open) return fail("tick-end without tick-begin");
        tick_open = false;
        const double t_now = in.get_f64();
        const std::uint64_t n = in.get_u64();
        TickCompare cmp{result.ticks_replayed, t_now, 0,
                        &result.divergences, options.max_divergences};
        // A re-based run (time_offset != 0) cannot bit-match the
        // recorded outputs — they embed the original clock — so the
        // tick payload is still shape-validated but not compared.
        if (compare) cmp.f64("tick.t_now", last_tick_t, t_now);
        for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
          const std::uint64_t rec_id = in.get_u64();
          core::TrackResult recorded;
          if (!decode_track_result(in, &recorded)) break;
          if (!compare) continue;
          cmp.session_id = rec_id;
          const auto lit = live.find(rec_id);
          if (lit == live.end()) {
            cmp.add("session", "present", "missing");
            continue;
          }
          const auto rit = last_tick.find(lit->second);
          if (rit == last_tick.end()) {
            cmp.add("session", "present", "not in replayed tick");
            continue;
          }
          compare_result(cmp, recorded, rit->second);
          result.results_compared += 1;
        }
        if (!in.ok() || !in.exhausted()) {
          return fail("malformed tick-end chunk");
        }
        result.ticks_replayed += 1;
        if (cmp.full()) {
          result.ok = true;
          return result;  // diverged hard: later ticks add no signal
        }
        break;
      }
      default:
        return fail("unknown chunk type during replay");
    }
  }
  result.ok = true;
  return result;
}

std::string format_report(const std::string& log_path,
                          const ReplayResult& result) {
  std::string out;
  out += "replay report: " + log_path + "\n";
  if (!result.ok) {
    out += "  status: ERROR\n  error: " + result.error + "\n";
    return out;
  }
  out += "  ticks replayed: " + std::to_string(result.ticks_replayed) +
         "\n  results compared: " +
         std::to_string(result.results_compared) + "\n";
  if (result.feeds_rejected != 0) {
    out += "  feeds rejected: " + std::to_string(result.feeds_rejected) +
           " (replay engine refused recorded samples)\n";
  }
  if (result.divergences.empty()) {
    out += result.rebased
               ? "  status: REPLAYED (re-based; no bit-compare)\n"
               : "  status: BIT-IDENTICAL\n";
    return out;
  }
  out += "  status: DIVERGED (" +
         std::to_string(result.divergences.size()) + " field(s))\n";
  const Divergence& first = result.divergences.front();
  out += "  first divergence:\n";
  out += "    tick:     " + std::to_string(first.tick_index) + " (t_now=" +
         render_f64(first.t_now) + ")\n";
  out += "    session:  " + std::to_string(first.session_id) + "\n";
  out += "    field:    " + first.field + "\n";
  out += "    recorded: " + first.recorded + "\n";
  out += "    replayed: " + first.replayed + "\n";
  for (std::size_t i = 1; i < result.divergences.size(); ++i) {
    const Divergence& d = result.divergences[i];
    out += "  also: tick " + std::to_string(d.tick_index) + " session " +
           std::to_string(d.session_id) + " " + d.field + ": " +
           d.recorded + " -> " + d.replayed + "\n";
  }
  return out;
}

std::string format_summary(const std::string& log_path,
                           const LogSummary& s) {
  std::string out;
  out += "log: " + log_path + "\n";
  out += "  format version:  " + std::to_string(s.format_version) + "\n";
  out += "  engine threads:  " + std::to_string(s.engine.num_threads) +
         "\n";
  out += "  ingest rings:    csi=" +
         std::to_string(s.engine.ingest.csi_capacity) +
         " imu=" + std::to_string(s.engine.ingest.imu_capacity) +
         " policy=" +
         std::to_string(static_cast<int>(s.engine.ingest.policy)) + "\n";
  out += "  profiles:        " + std::to_string(s.profile_hashes.size());
  for (const std::uint32_t h : s.profile_hashes) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), " 0x%08x", h);
    out += buf;
  }
  out += "\n";
  out += "  sessions:        " + std::to_string(s.session_starts) +
         " started, " + std::to_string(s.session_ends) + " ended\n";
  out += "  feeds:           csi=" + std::to_string(s.csi_frames) +
         " imu=" + std::to_string(s.imu_samples) +
         " camera=" + std::to_string(s.camera_frames) + "\n";
  out += "  ticks:           " + std::to_string(s.ticks) + "\n";
  out += std::string("  footer:          ") +
         (s.has_footer ? "present" : "MISSING (recorder died mid-run)") +
         "\n";
  if (s.truncated) {
    out += "  TRUNCATED: " + std::to_string(s.staging_drops) +
           " staged chunk(s) dropped; not bit-exact replayable\n";
  }
  return out;
}

}  // namespace vihot::replay
