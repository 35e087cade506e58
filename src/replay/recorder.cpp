#include "replay/recorder.h"

#include <cstdio>
#include <cstring>
#include <utility>

namespace vihot::replay {

Recorder::Recorder(Config config) : config_(std::move(config)) {
  if (config_.sink != nullptr) stats_ = &config_.sink->replay;
  active_.reserve(config_.staging_bytes);
  inflight_.reserve(config_.staging_bytes);
  file_ = std::fopen(config_.path.c_str(), "wb");
  if (file_ == nullptr) {
    error_ = "cannot open " + config_.path + " for writing";
    closed_ = true;
    return;
  }
  unsigned char preamble[sizeof(kMagic) + 4];
  std::memcpy(preamble, kMagic, sizeof(kMagic));
  std::memcpy(preamble + sizeof(kMagic), &kFormatVersion, 4);
  if (std::fwrite(preamble, 1, sizeof(preamble), file_) !=
      sizeof(preamble)) {
    error_ = "write failed on " + config_.path;
    std::fclose(file_);
    file_ = nullptr;
    closed_ = true;
    return;
  }
  if (stats_ != nullptr) stats_->bytes_written.inc(sizeof(preamble));
  writer_ = std::thread([this] { writer_loop(); });
}

Recorder::~Recorder() { close(); }

bool Recorder::ok() const {
  std::lock_guard<std::mutex> lk(mu_);
  return error_.empty();
}

std::string Recorder::error() const {
  std::lock_guard<std::mutex> lk(mu_);
  return error_;
}

Recorder::Totals Recorder::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  return totals_;
}

void Recorder::rotate_locked(std::unique_lock<std::mutex>& lk) {
  space_cv_.wait(lk, [this] { return !writer_busy_; });
  active_.swap(inflight_);  // inflight_ is empty with capacity reserved
  writer_busy_ = true;
  work_cv_.notify_one();
}

bool Recorder::ensure_fit(std::unique_lock<std::mutex>& lk, std::size_t n,
                          bool must) {
  if (active_.size() + n <= config_.staging_bytes) return true;
  if (must) {
    // Control chunks define the replay skeleton: rotate (waiting on the
    // writer if needed). An oversized chunk then grows the empty active
    // buffer — a cold-path allocation, never a loss.
    if (!active_.empty()) rotate_locked(lk);
    return true;
  }
  if (!writer_busy_ && !active_.empty()) {
    rotate_locked(lk);  // instant swap: the writer is idle
    if (n <= config_.staging_bytes) return true;
  }
  // Both buffers occupied, or the chunk alone exceeds the staging
  // capacity: drop rather than block a producer or allocate.
  totals_.staging_drops += 1;
  totals_.truncated = true;
  if (stats_ != nullptr) stats_->staging_drops.inc();
  return false;
}

void Recorder::writer_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return writer_busy_ || stop_; });
    if (!writer_busy_) {
      if (stop_) return;
      continue;
    }
    lk.unlock();
    bool write_ok = true;
    if (file_ != nullptr && !inflight_.empty()) {
      write_ok = std::fwrite(inflight_.data(), 1, inflight_.size(),
                             file_) == inflight_.size();
      if (stats_ != nullptr && write_ok) {
        stats_->bytes_written.inc(inflight_.size());
        stats_->writer_flushes.inc();
      }
    }
    lk.lock();
    if (!write_ok && error_.empty()) {
      error_ = "write failed on " + config_.path;
    }
    inflight_.clear();
    writer_busy_ = false;
    space_cv_.notify_all();
    if (stop_) return;
  }
}

void Recorder::on_engine_start(const engine::EngineDescriptor& desc) {
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_ || !error_.empty()) return;
  scratch_.clear();
  encode_engine_descriptor(scratch_, desc);
  ensure_fit(lk, chunk_overhead() + scratch_.size(), /*must=*/true);
  append_chunk(active_, ChunkType::kHeader, scratch_.data(),
               scratch_.size());
}

void Recorder::on_session_created(
    std::uint64_t id, const core::TrackerConfig& config,
    const std::shared_ptr<const core::CsiProfile>& profile) {
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_ || !error_.empty()) return;
  // Intern the profile: one kProfile chunk per distinct profile object,
  // referenced from every session that shares it by content hash.
  std::uint32_t hash = 0;
  const auto it = profile_hashes_.find(profile.get());
  if (it != profile_hashes_.end()) {
    hash = it->second;
  } else {
    scratch_.clear();
    encode_profile(scratch_, *profile);
    hash = crc32(scratch_.data(), scratch_.size());
    ensure_fit(lk, chunk_overhead() + scratch_.size(), /*must=*/true);
    append_chunk(active_, ChunkType::kProfile, scratch_.data(),
                 scratch_.size());
    profile_hashes_.emplace(profile.get(), hash);
  }
  scratch_.clear();
  put_u64(scratch_, id);
  put_u32(scratch_, hash);
  encode_tracker_config(scratch_, config);
  ensure_fit(lk, chunk_overhead() + scratch_.size(), /*must=*/true);
  append_chunk(active_, ChunkType::kSessionStart, scratch_.data(),
               scratch_.size());
  totals_.sessions_created += 1;
}

void Recorder::on_session_destroyed(std::uint64_t id) {
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_ || !error_.empty()) return;
  ensure_fit(lk, chunk_overhead() + 8, /*must=*/true);
  const std::size_t frame = begin_chunk(active_);
  put_u64(active_, id);
  finish_chunk(active_, frame, ChunkType::kSessionEnd);
}

void Recorder::on_csi(std::uint64_t id, const wifi::CsiMeasurement& m,
                      bool offered) {
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_ || !error_.empty()) return;
  if (!ensure_fit(lk, csi_chunk_size(m.num_subcarriers()), /*must=*/false)) {
    return;
  }
  const std::size_t frame = begin_chunk(active_);
  encode_csi_payload(active_, id, m, offered);
  finish_chunk(active_, frame, ChunkType::kCsi);
  totals_.csi_frames += 1;
  if (stats_ != nullptr) stats_->frames_recorded.inc();
}

void Recorder::on_imu(std::uint64_t id, const imu::ImuSample& s,
                      bool offered) {
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_ || !error_.empty()) return;
  if (!ensure_fit(lk, imu_chunk_size(), /*must=*/false)) return;
  const std::size_t frame = begin_chunk(active_);
  encode_imu_payload(active_, id, s, offered);
  finish_chunk(active_, frame, ChunkType::kImu);
  totals_.imu_samples += 1;
  if (stats_ != nullptr) stats_->frames_recorded.inc();
}

void Recorder::on_camera(std::uint64_t id,
                         const camera::CameraTracker::Estimate& e) {
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_ || !error_.empty()) return;
  if (!ensure_fit(lk, camera_chunk_size(), /*must=*/false)) return;
  const std::size_t frame = begin_chunk(active_);
  encode_camera_payload(active_, id, e);
  finish_chunk(active_, frame, ChunkType::kCamera);
  totals_.camera_frames += 1;
  if (stats_ != nullptr) stats_->frames_recorded.inc();
}

void Recorder::on_tick_end(double t_now,
                           std::span<const std::uint64_t> session_ids,
                           std::span<const core::TrackResult> results) {
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_ || !error_.empty()) return;
  // The tick-begin marker and the tick's results are written together,
  // so no feed chunk can land between them. tick_result_entry_size()
  // already covers the id + result pair.
  const std::size_t payload =
      8 + 8 + session_ids.size() * tick_result_entry_size();
  ensure_fit(lk, 2 * chunk_overhead() + 8 + payload, /*must=*/true);
  std::size_t frame = begin_chunk(active_);
  put_f64(active_, t_now);
  finish_chunk(active_, frame, ChunkType::kTickBegin);
  frame = begin_chunk(active_);
  put_f64(active_, t_now);
  put_u64(active_, session_ids.size());
  for (std::size_t i = 0; i < session_ids.size(); ++i) {
    put_u64(active_, session_ids[i]);
    encode_track_result(active_, results[i]);
  }
  finish_chunk(active_, frame, ChunkType::kTickEnd);
  totals_.ticks += 1;
  if (stats_ != nullptr) stats_->frames_recorded.inc();
}

bool Recorder::close() {
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_) return error_.empty();
  closed_ = true;
  if (file_ != nullptr && error_.empty()) {
    const std::size_t frame = begin_chunk(active_);
    put_u64(active_, totals_.csi_frames);
    put_u64(active_, totals_.imu_samples);
    put_u64(active_, totals_.camera_frames);
    put_u64(active_, totals_.ticks);
    put_u64(active_, totals_.sessions_created);
    put_u64(active_, totals_.staging_drops);
    put_u8(active_, totals_.truncated ? 1 : 0);
    finish_chunk(active_, frame, ChunkType::kFooter);
  }
  if (!active_.empty()) rotate_locked(lk);
  stop_ = true;
  work_cv_.notify_all();
  lk.unlock();
  if (writer_.joinable()) writer_.join();
  lk.lock();
  if (file_ != nullptr) {
    if (std::fflush(file_) != 0 && error_.empty()) {
      error_ = "flush failed on " + config_.path;
    }
    std::fclose(file_);
    file_ = nullptr;
  }
  return error_.empty();
}

}  // namespace vihot::replay
