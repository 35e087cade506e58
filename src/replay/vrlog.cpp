#include "replay/vrlog.h"

#include <cmath>
#include <cstring>

#include "engine/ingest_ring.h"
#include "util/crc32.h"

namespace vihot::replay {

namespace {

/// Sanity caps: a corrupt length field must not trigger gigabyte
/// reserves. Generous next to any real capture. decode_profile also
/// enforces the grid-step floor core::kMinProfileDt through
/// CsiProfile::well_formed(), which bounds a query's window_s worth of
/// samples (at most 60 s / 1e-4 s = 6e5 below).
constexpr std::size_t kMaxSeriesSamples = 1u << 24;
constexpr std::size_t kMaxPositions = 1u << 16;
constexpr std::size_t kMaxSubcarriers = 4096;
constexpr std::size_t kMaxRxNullRatios = 4096;
/// TrackerConfig::matcher caps. The scan loops over num_lengths,
/// reserves a query of min_query_samples (or window_s worth of
/// samples), strides start offsets by start_stride, and casts the
/// length factors times the query length to size_t; each cap keeps
/// that bounded and the casts defined. Defaults: 7 lengths, 6 samples,
/// a 0.1 s window, factors 0.5-2.0, stride 2.
constexpr std::uint64_t kMaxMatcherLengths = 1024;
constexpr std::uint64_t kMaxQuerySamples = 1u << 16;
constexpr double kMaxMatcherWindowS = 60.0;
constexpr double kMaxLengthFactor = 64.0;

}  // namespace

std::uint32_t crc32(const unsigned char* data, std::size_t n,
                    std::uint32_t seed) {
  // The shared slicing-by-8 implementation (also the ProfileStore's
  // content hash): one table set, one codepath to trust.
  return util::crc32(data, n, seed);
}

void put_u8(std::vector<unsigned char>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

void put_f64(std::vector<unsigned char>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}

const unsigned char* Cursor::take(std::size_t n) {
  if (failed_ || size_ - pos_ < n) {
    failed_ = true;
    return nullptr;
  }
  const unsigned char* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Cursor::get_u8() {
  const unsigned char* p = take(1);
  return p == nullptr ? 0 : *p;
}

std::uint32_t Cursor::get_u32() {
  const unsigned char* p = take(4);
  if (p == nullptr) return 0;
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t Cursor::get_u64() {
  const unsigned char* p = take(8);
  if (p == nullptr) return 0;
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

double Cursor::get_f64() {
  const std::uint64_t bits = get_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, 8);
  return v;
}

void append_chunk(std::vector<unsigned char>& out, ChunkType type,
                  const unsigned char* payload, std::size_t payload_size) {
  const std::size_t frame_start = begin_chunk(out);
  const std::size_t at = out.size();
  out.resize(at + payload_size);
  if (payload_size > 0) std::memcpy(out.data() + at, payload, payload_size);
  finish_chunk(out, frame_start, type);
}

std::size_t begin_chunk(std::vector<unsigned char>& out) {
  const std::size_t frame_start = out.size();
  out.resize(frame_start + 8);  // type + length hole, patched by finish
  return frame_start;
}

void finish_chunk(std::vector<unsigned char>& out, std::size_t frame_start,
                  ChunkType type) {
  const std::uint32_t type_raw = static_cast<std::uint32_t>(type);
  const std::uint32_t payload_size =
      static_cast<std::uint32_t>(out.size() - frame_start - 8);
  std::memcpy(out.data() + frame_start, &type_raw, 4);
  std::memcpy(out.data() + frame_start + 4, &payload_size, 4);
  const std::uint32_t crc =
      crc32(out.data() + frame_start, 8 + payload_size);
  put_u32(out, crc);
}

ChunkScanner::ChunkScanner(const unsigned char* data, std::size_t size)
    : data_(data), size_(size) {
  if (size_ < sizeof(kMagic) + 4) {
    error_ = "log shorter than the file header";
    return;
  }
  if (std::memcmp(data_, kMagic, sizeof(kMagic)) != 0) {
    error_ = "bad magic (not a .vrlog file)";
    return;
  }
  std::memcpy(&format_version_, data_ + sizeof(kMagic), 4);
  if (format_version_ != kFormatVersion) {
    error_ = "unsupported format version " + std::to_string(format_version_);
    return;
  }
  header_ok_ = true;
  pos_ = sizeof(kMagic) + 4;
}

std::optional<ChunkView> ChunkScanner::next() {
  if (!header_ok_ || failed() || pos_ == size_) return std::nullopt;
  if (size_ - pos_ < chunk_overhead()) {
    error_ = "truncated chunk frame at offset " + std::to_string(pos_);
    return std::nullopt;
  }
  std::uint32_t type_raw = 0;
  std::uint32_t payload_size = 0;
  std::memcpy(&type_raw, data_ + pos_, 4);
  std::memcpy(&payload_size, data_ + pos_ + 4, 4);
  if (size_ - pos_ - chunk_overhead() < payload_size) {
    error_ = "truncated chunk payload at offset " + std::to_string(pos_);
    return std::nullopt;
  }
  const std::uint32_t want = crc32(data_ + pos_, 8 + payload_size);
  std::uint32_t got = 0;
  std::memcpy(&got, data_ + pos_ + 8 + payload_size, 4);
  if (want != got) {
    error_ = "CRC mismatch in chunk at offset " + std::to_string(pos_);
    return std::nullopt;
  }
  ChunkView view;
  view.type = static_cast<ChunkType>(type_raw);
  view.payload = data_ + pos_ + 8;
  view.size = payload_size;
  pos_ += chunk_overhead() + payload_size;
  return view;
}

// --- Structured payloads ------------------------------------------------

void encode_engine_descriptor(std::vector<unsigned char>& out,
                              const engine::EngineDescriptor& desc) {
  put_u64(out, desc.num_threads);
  put_u8(out, 1);  // reserved; see kHeader in vrlog.h
  put_u64(out, desc.ingest.csi_capacity);
  put_u64(out, desc.ingest.imu_capacity);
  put_u8(out, static_cast<std::uint8_t>(desc.ingest.policy));
  put_u64(out, desc.ingest.lanes);
  put_f64(out, desc.ingest.high_watermark);
  put_u64(out, desc.ingest.max_block_spins);
}

bool decode_engine_descriptor(Cursor& in, engine::EngineDescriptor* desc) {
  desc->num_threads = in.get_u64();
  (void)in.get_u8();  // reserved; see kHeader in vrlog.h
  desc->ingest.csi_capacity = in.get_u64();
  desc->ingest.imu_capacity = in.get_u64();
  const std::uint8_t policy = in.get_u8();
  if (policy > static_cast<std::uint8_t>(
                   engine::OverloadPolicy::kDropNewest)) {
    return false;
  }
  desc->ingest.policy = static_cast<engine::OverloadPolicy>(policy);
  desc->ingest.lanes = in.get_u64();
  desc->ingest.high_watermark = in.get_f64();
  desc->ingest.max_block_spins = in.get_u64();
  // A replay sizes its worker pool and lane table from these counts.
  return in.ok() && desc->num_threads <= engine::kMaxWorkerThreads &&
         desc->ingest.lanes <= engine::kMaxWorkerThreads;
}

void encode_tracker_config(std::vector<unsigned char>& out,
                           const core::TrackerConfig& c) {
  put_u32(out, kConfigLayoutVersion);
  // Sanitizer.
  put_u8(out, c.sanitizer.antenna_difference ? 1 : 0);
  put_u8(out, c.sanitizer.subcarrier_average ? 1 : 0);
  put_u64(out, c.sanitizer.single_subcarrier);
  put_u64(out, c.sanitizer.rx_null_ratio.size());
  for (const std::complex<double>& r : c.sanitizer.rx_null_ratio) {
    put_f64(out, r.real());
    put_f64(out, r.imag());
  }
  // Matcher.
  put_f64(out, c.matcher.window_s);
  put_f64(out, c.matcher.min_length_factor);
  put_f64(out, c.matcher.max_length_factor);
  put_u64(out, c.matcher.num_lengths);
  put_u64(out, c.matcher.start_stride);
  put_f64(out, c.matcher.band_fraction);
  put_u64(out, c.matcher.min_query_samples);
  put_f64(out, c.matcher.max_dc_offset_rad);
  // Stability detector.
  put_f64(out, c.stability.window_s);
  put_f64(out, c.stability.max_spread_rad);
  put_u64(out, c.stability.min_samples);
  // Steering identifier.
  put_u8(out, c.steering.enabled ? 1 : 0);
  put_f64(out, c.steering.detector.yaw_rate_threshold);
  put_f64(out, c.steering.detector.smooth_window_s);
  put_f64(out, c.steering.detector.release_ratio);
  put_f64(out, c.steering.detector.hold_after_s);
  // Tracker-level knobs.
  put_u8(out, c.jump_filter_enabled ? 1 : 0);
  put_f64(out, c.max_theta_rate_rad_s);
  put_u64(out, static_cast<std::uint64_t>(c.jump_filter_patience));
  put_f64(out, c.camera_staleness_s);
  put_f64(out, c.stale_window_s);
  put_f64(out, c.continuity_slack_rad);
  put_f64(out, c.relock_distance);
  put_u64(out, static_cast<std::uint64_t>(c.relock_patience));
  put_u8(out, c.assume_forward_start ? 1 : 0);
  put_f64(out, c.fingerprint_gate_margin_rad);
  put_u64(out, c.neighbor_slots);
  put_u8(out, c.bias_correction ? 1 : 0);
  put_f64(out, c.flat_spread_rad);
  put_f64(out, c.moving_spread_rad);
  put_f64(out, c.tie_break_ratio);
  put_f64(out, c.soft_continuity_weight);
  // Layout v2: pluggable estimation backends (appended — see the bump
  // policy at kConfigLayoutVersion).
  put_u8(out, static_cast<std::uint8_t>(c.sanitizer_backend));
  put_f64(out, c.kalman.process_noise_rad2_s);
  put_f64(out, c.kalman.measurement_noise_rad2);
  put_f64(out, c.kalman.initial_variance_rad2);
  put_f64(out, c.kalman.gate_sigma);
  put_f64(out, c.kalman.max_coast_s);
  put_u8(out, static_cast<std::uint8_t>(c.tracker_backend));
  put_f64(out, c.ekf.q_theta_rad2_s);
  put_f64(out, c.ekf.q_omega_rad2_s3);
  put_f64(out, c.ekf.omega_tau_s);
  put_f64(out, c.ekf.gyro_coupling);
  put_f64(out, c.ekf.r_base_rad2);
  put_f64(out, c.ekf.r_distance_scale);
  put_f64(out, c.ekf.steer_gyro_threshold_rad_s);
  put_f64(out, c.ekf.steer_noise_inflation);
  put_f64(out, c.ekf.gyro_smoothing_tau_s);
  put_f64(out, c.ekf.r_camera_rad2);
  put_f64(out, c.ekf.hint_sigma);
  put_f64(out, c.ekf.hint_slack_rad);
  put_f64(out, c.ekf.relock_gate);
  put_u64(out, static_cast<std::uint64_t>(c.ekf.relock_patience));
  put_f64(out, c.ekf.init_theta_var_rad2);
  put_f64(out, c.ekf.init_omega_var_rad2_s2);
}

bool decode_tracker_config(Cursor& in, core::TrackerConfig* c) {
  const std::uint32_t version = in.get_u32();
  if (version < kMinConfigLayoutVersion || version > kConfigLayoutVersion) {
    return false;
  }
  c->sanitizer.antenna_difference = in.get_u8() != 0;
  c->sanitizer.subcarrier_average = in.get_u8() != 0;
  c->sanitizer.single_subcarrier =
      static_cast<std::size_t>(in.get_u64());
  const std::uint64_t num_ratios = in.get_u64();
  if (!in.ok() || num_ratios > kMaxRxNullRatios) return false;
  c->sanitizer.rx_null_ratio.clear();
  c->sanitizer.rx_null_ratio.reserve(num_ratios);
  for (std::uint64_t i = 0; i < num_ratios; ++i) {
    const double re = in.get_f64();
    const double im = in.get_f64();
    c->sanitizer.rx_null_ratio.emplace_back(re, im);
  }
  const double window_s = in.get_f64();
  const double min_length_factor = in.get_f64();
  const double max_length_factor = in.get_f64();
  const std::uint64_t num_lengths = in.get_u64();
  const std::uint64_t start_stride = in.get_u64();
  const double band_fraction = in.get_f64();
  const std::uint64_t min_query_samples = in.get_u64();
  const double max_dc_offset_rad = in.get_f64();
  const auto factor_ok = [](double f) {
    return f >= 0.0 && f <= kMaxLengthFactor;  // false for NaN
  };
  if (!(window_s > 0.0 && window_s <= kMaxMatcherWindowS) ||
      !factor_ok(min_length_factor) || !factor_ok(max_length_factor) ||
      num_lengths > kMaxMatcherLengths || start_stride > kMaxSeriesSamples ||
      !std::isfinite(band_fraction) || min_query_samples > kMaxQuerySamples ||
      !std::isfinite(max_dc_offset_rad)) {
    return false;
  }
  c->matcher.window_s = window_s;
  c->matcher.min_length_factor = min_length_factor;
  c->matcher.max_length_factor = max_length_factor;
  c->matcher.num_lengths = static_cast<std::size_t>(num_lengths);
  c->matcher.start_stride = static_cast<std::size_t>(start_stride);
  c->matcher.band_fraction = band_fraction;
  c->matcher.min_query_samples = static_cast<std::size_t>(min_query_samples);
  c->matcher.max_dc_offset_rad = max_dc_offset_rad;
  c->stability.window_s = in.get_f64();
  c->stability.max_spread_rad = in.get_f64();
  c->stability.min_samples = static_cast<std::size_t>(in.get_u64());
  c->steering.enabled = in.get_u8() != 0;
  c->steering.detector.yaw_rate_threshold = in.get_f64();
  c->steering.detector.smooth_window_s = in.get_f64();
  c->steering.detector.release_ratio = in.get_f64();
  c->steering.detector.hold_after_s = in.get_f64();
  c->jump_filter_enabled = in.get_u8() != 0;
  c->max_theta_rate_rad_s = in.get_f64();
  c->jump_filter_patience = static_cast<int>(in.get_u64());
  c->camera_staleness_s = in.get_f64();
  c->stale_window_s = in.get_f64();
  c->continuity_slack_rad = in.get_f64();
  c->relock_distance = in.get_f64();
  c->relock_patience = static_cast<int>(in.get_u64());
  c->assume_forward_start = in.get_u8() != 0;
  c->fingerprint_gate_margin_rad = in.get_f64();
  c->neighbor_slots = static_cast<std::size_t>(in.get_u64());
  c->bias_correction = in.get_u8() != 0;
  c->flat_spread_rad = in.get_f64();
  c->moving_spread_rad = in.get_f64();
  c->tie_break_ratio = in.get_f64();
  c->soft_continuity_weight = in.get_f64();
  if (version >= 2) {
    const std::uint8_t sanitizer_backend = in.get_u8();
    if (sanitizer_backend >
        static_cast<std::uint8_t>(core::SanitizerBackend::kKalman)) {
      return false;
    }
    c->sanitizer_backend =
        static_cast<core::SanitizerBackend>(sanitizer_backend);
    c->kalman.process_noise_rad2_s = in.get_f64();
    c->kalman.measurement_noise_rad2 = in.get_f64();
    c->kalman.initial_variance_rad2 = in.get_f64();
    c->kalman.gate_sigma = in.get_f64();
    c->kalman.max_coast_s = in.get_f64();
    const std::uint8_t tracker_backend = in.get_u8();
    if (tracker_backend >
        static_cast<std::uint8_t>(core::TrackerBackend::kEkf)) {
      return false;
    }
    c->tracker_backend = static_cast<core::TrackerBackend>(tracker_backend);
    c->ekf.q_theta_rad2_s = in.get_f64();
    c->ekf.q_omega_rad2_s3 = in.get_f64();
    c->ekf.omega_tau_s = in.get_f64();
    c->ekf.gyro_coupling = in.get_f64();
    c->ekf.r_base_rad2 = in.get_f64();
    c->ekf.r_distance_scale = in.get_f64();
    c->ekf.steer_gyro_threshold_rad_s = in.get_f64();
    c->ekf.steer_noise_inflation = in.get_f64();
    c->ekf.gyro_smoothing_tau_s = in.get_f64();
    c->ekf.r_camera_rad2 = in.get_f64();
    c->ekf.hint_sigma = in.get_f64();
    c->ekf.hint_slack_rad = in.get_f64();
    c->ekf.relock_gate = in.get_f64();
    c->ekf.relock_patience = static_cast<int>(in.get_u64());
    c->ekf.init_theta_var_rad2 = in.get_f64();
    c->ekf.init_omega_var_rad2_s2 = in.get_f64();
  } else {
    // v1 log: recorded before the backends existed — the defaults
    // (kEqDiff + kDtw, default tunings) reproduce its pipeline exactly.
    c->sanitizer_backend = core::SanitizerBackend::kEqDiff;
    c->kalman = core::KalmanSanitizerConfig{};
    c->tracker_backend = core::TrackerBackend::kDtw;
    c->ekf = core::EkfFusionConfig{};
  }
  c->sink = nullptr;
  return in.ok();
}

namespace {

void encode_series(std::vector<unsigned char>& out,
                   const util::UniformSeries& s) {
  put_f64(out, s.t0);
  put_f64(out, s.dt);
  put_u64(out, s.values.size());
  for (const double v : s.values) put_f64(out, v);
}

bool decode_series(Cursor& in, util::UniformSeries* s) {
  s->t0 = in.get_f64();
  s->dt = in.get_f64();
  const std::uint64_t n = in.get_u64();
  if (!in.ok() || n > kMaxSeriesSamples) return false;
  s->values.clear();
  s->values.reserve(n);
  for (std::uint64_t k = 0; k < n; ++k) s->values.push_back(in.get_f64());
  return in.ok();
}

}  // namespace

void encode_profile(std::vector<unsigned char>& out,
                    const core::CsiProfile& profile) {
  put_f64(out, profile.sample_rate_hz);
  put_f64(out, profile.reference_phase);
  put_u64(out, profile.positions.size());
  for (const core::PositionProfile& p : profile.positions) {
    put_u64(out, p.position_index);
    put_f64(out, p.fingerprint_phase);
    put_f64(out, p.true_position.x);
    put_f64(out, p.true_position.y);
    put_f64(out, p.true_position.z);
    encode_series(out, p.csi);
    encode_series(out, p.orientation);
  }
}

bool decode_profile(Cursor& in, core::CsiProfile* profile) {
  profile->sample_rate_hz = in.get_f64();
  profile->reference_phase = in.get_f64();
  const std::uint64_t n = in.get_u64();
  if (!in.ok() || n > kMaxPositions) return false;
  profile->positions.clear();
  profile->positions.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    core::PositionProfile p;
    p.position_index = static_cast<std::size_t>(in.get_u64());
    p.fingerprint_phase = in.get_f64();
    p.true_position.x = in.get_f64();
    p.true_position.y = in.get_f64();
    p.true_position.z = in.get_f64();
    if (!decode_series(in, &p.csi)) return false;
    if (!decode_series(in, &p.orientation)) return false;
    profile->positions.push_back(std::move(p));
  }
  return in.ok() && profile->well_formed();
}

void encode_track_result(std::vector<unsigned char>& out,
                         const core::TrackResult& r) {
  put_u8(out, r.valid ? 1 : 0);
  put_f64(out, r.t);
  put_f64(out, r.theta_rad);
  put_u8(out, static_cast<std::uint8_t>(r.mode));
  put_u64(out, r.position_slot);
  put_u8(out, r.raw.valid ? 1 : 0);
  put_f64(out, r.raw.t);
  put_f64(out, r.raw.theta_rad);
  put_f64(out, r.raw.match_distance);
  put_f64(out, r.raw.runner_up_distance);
  put_u8(out, r.raw.runner_up_valid ? 1 : 0);
  put_f64(out, r.raw.runner_up_theta_rad);
  put_u64(out, r.raw.match_start);
  put_u64(out, r.raw.match_length);
  put_f64(out, r.raw.speed_ratio);
}

bool decode_track_result(Cursor& in, core::TrackResult* r) {
  r->valid = in.get_u8() != 0;
  r->t = in.get_f64();
  r->theta_rad = in.get_f64();
  r->mode = static_cast<core::TrackingMode>(in.get_u8());
  r->position_slot = static_cast<std::size_t>(in.get_u64());
  r->raw.valid = in.get_u8() != 0;
  r->raw.t = in.get_f64();
  r->raw.theta_rad = in.get_f64();
  r->raw.match_distance = in.get_f64();
  r->raw.runner_up_distance = in.get_f64();
  r->raw.runner_up_valid = in.get_u8() != 0;
  r->raw.runner_up_theta_rad = in.get_f64();
  r->raw.match_start = static_cast<std::size_t>(in.get_u64());
  r->raw.match_length = static_cast<std::size_t>(in.get_u64());
  r->raw.speed_ratio = in.get_f64();
  return in.ok();
}

void encode_csi_payload(std::vector<unsigned char>& out, std::uint64_t id,
                        const wifi::CsiMeasurement& m, bool offered) {
  put_u64(out, id);
  put_f64(out, m.t);
  put_u8(out, offered ? 1 : 0);
  put_u32(out, static_cast<std::uint32_t>(m.num_subcarriers()));
  for (const auto& antenna : m.h) {
    for (const std::complex<double>& h : antenna) {
      put_f64(out, h.real());
      put_f64(out, h.imag());
    }
  }
}

bool decode_csi_payload(Cursor& in, std::uint64_t* id,
                        wifi::CsiMeasurement* m, bool* offered) {
  *id = in.get_u64();
  m->t = in.get_f64();
  *offered = in.get_u8() != 0;
  const std::uint32_t nsc = in.get_u32();
  if (!in.ok() || nsc > kMaxSubcarriers) return false;
  for (auto& antenna : m->h) {
    antenna.clear();
    antenna.reserve(nsc);
    for (std::uint32_t f = 0; f < nsc; ++f) {
      const double re = in.get_f64();
      const double im = in.get_f64();
      antenna.emplace_back(re, im);
    }
  }
  return in.ok();
}

void encode_imu_payload(std::vector<unsigned char>& out, std::uint64_t id,
                        const imu::ImuSample& s, bool offered) {
  put_u64(out, id);
  put_f64(out, s.t);
  put_f64(out, s.gyro_yaw_rad_s);
  put_f64(out, s.accel_lateral_mps2);
  put_u8(out, offered ? 1 : 0);
}

bool decode_imu_payload(Cursor& in, std::uint64_t* id, imu::ImuSample* s,
                        bool* offered) {
  *id = in.get_u64();
  s->t = in.get_f64();
  s->gyro_yaw_rad_s = in.get_f64();
  s->accel_lateral_mps2 = in.get_f64();
  *offered = in.get_u8() != 0;
  return in.ok();
}

void encode_camera_payload(std::vector<unsigned char>& out, std::uint64_t id,
                           const camera::CameraTracker::Estimate& e) {
  put_u64(out, id);
  put_f64(out, e.t);
  put_f64(out, e.theta);
  put_u8(out, e.valid ? 1 : 0);
}

bool decode_camera_payload(Cursor& in, std::uint64_t* id,
                           camera::CameraTracker::Estimate* e) {
  *id = in.get_u64();
  e->t = in.get_f64();
  e->theta = in.get_f64();
  e->valid = in.get_u8() != 0;
  return in.ok();
}

}  // namespace vihot::replay
