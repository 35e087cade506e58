// .vrlog: the flight recorder's self-describing chunked binary format.
//
// A session log is the byte-exact capture of one TrackerEngine run at
// its deterministic boundary — everything a replayer needs to re-drive
// the run bit-identically, and nothing more (wall-clock time, thread
// scheduling and metrics are deliberately NOT captured; see DESIGN.md
// Sec. 5g for the determinism contract).
//
//   file   := magic[8] u32:format_version chunk*
//   chunk  := u32:type u32:payload_len payload u32:crc32
//
// The CRC covers type + length + payload, so a flipped bit anywhere in a
// chunk (including its framing) is detected. All integers and doubles
// are fixed-width host-endian (little-endian on every platform this
// repo targets); doubles are raw IEEE-754 bit patterns, so a value that
// round-trips the log is the SAME double, not a nearby one.
//
// Chunk inventory (in the order a recorder emits them):
//
//   kHeader        engine descriptor: worker threads, one reserved
//                  byte (written as 1, ignored on read; older logs
//                  stored a since-removed engine flag there), ingest
//                  ring capacities + overload policy (the knobs that
//                  decide which samples survive), then three reserved
//                  fields that older engines let callers set: u64
//                  ingest lanes (written as 0, range-checked against
//                  kMaxWorkerThreads on read), f64 high watermark and
//                  u64 block spin limit (written as engine::
//                  kHighWatermark / kMaxBlockSpins, ignored on read)
//   kProfile       one interned CsiProfile, content-addressed by the
//                  CRC32 of its payload (the "profile content hash")
//   kSessionStart  session id + profile reference + full TrackerConfig
//   kSessionEnd    session id (fleet churn replays faithfully)
//   kCsi/kImu      one validated feed sample: session id, arrival-order
//                  position is the chunk's position in the file, plus
//                  whether it entered through the async offer path
//   kCamera        one camera fallback estimate
//   kTickBegin     estimate_all() tick marker, written right before
//                  its kTickEnd: the feed chunks ahead of it are what
//                  the tick's estimates saw
//   kTickEnd       the tick's recorded outputs: per-session TrackResult
//   kFooter        totals + truncation flag (staging overflow drops)
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "camera/camera_tracker.h"
#include "core/profile.h"
#include "core/tracker.h"
#include "engine/record_tap.h"
#include "imu/imu.h"
#include "wifi/csi.h"

namespace vihot::replay {

inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr unsigned char kMagic[8] = {'V', 'I', 'H', 'O',
                                            'T', 'V', 'R', 'L'};
/// Version tag of the TrackerConfig field layout inside kSessionStart
/// (bumped whenever a config field is added, so old logs fail loudly
/// instead of silently misparsing). Bump policy: new fields are
/// appended after the previous layout's last field, the encoder always
/// writes the newest version, and the decoder keeps an explicit read
/// path per historical version that fills the new fields with their
/// TrackerConfig defaults — so every log ever recorded keeps replaying
/// bit-exactly (DESIGN.md §5h).
///
///   v1: sanitizer/matcher/stability/steering + tracker-level knobs,
///       ending at soft_continuity_weight.
///   v2: + sanitizer_backend, KalmanSanitizerConfig, tracker_backend,
///       EkfFusionConfig (the pluggable estimation backends).
inline constexpr std::uint32_t kConfigLayoutVersion = 2;
/// Oldest TrackerConfig layout the decoder still reads.
inline constexpr std::uint32_t kMinConfigLayoutVersion = 1;

enum class ChunkType : std::uint32_t {
  kHeader = 0x01,
  kProfile = 0x02,
  kSessionStart = 0x03,
  kSessionEnd = 0x04,
  kCsi = 0x10,
  kImu = 0x11,
  kCamera = 0x12,
  kTickBegin = 0x20,
  kTickEnd = 0x21,
  kFooter = 0x7F,
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320); `seed` chains partial
/// computations: crc32(b, crc32(a)) == crc32(a||b).
[[nodiscard]] std::uint32_t crc32(const unsigned char* data, std::size_t n,
                                  std::uint32_t seed = 0);

// --- Primitive little-endian byte codecs --------------------------------
// Appends resize the vector; when the caller pre-reserved enough capacity
// (the recorder's staging buffer) they never allocate.

void put_u8(std::vector<unsigned char>& out, std::uint8_t v);
void put_u32(std::vector<unsigned char>& out, std::uint32_t v);
void put_u64(std::vector<unsigned char>& out, std::uint64_t v);
/// Raw IEEE-754 bit pattern: the round trip is bit-exact by construction.
void put_f64(std::vector<unsigned char>& out, double v);

/// Bounded forward read cursor over a decoded payload. Every get_* sets
/// the fail flag (and returns 0) past the end instead of reading out of
/// bounds, so decoders can check ok() once at the end.
class Cursor {
 public:
  Cursor(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_f64();
  /// Steps over `n` bytes of fields the reader does not keep; fails like
  /// a read when fewer remain.
  void skip(std::size_t n) { (void)take(n); }

  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - pos_;
  }
  /// True when the payload was consumed exactly (no trailing bytes).
  [[nodiscard]] bool exhausted() const noexcept {
    return !failed_ && pos_ == size_;
  }

 private:
  const unsigned char* take(std::size_t n);

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// --- Chunk framing ------------------------------------------------------

/// Bytes a chunk of `payload` bytes occupies in the log (framing + CRC).
[[nodiscard]] constexpr std::size_t chunk_overhead() noexcept { return 12; }

/// Appends one framed chunk (type, length, payload, CRC) to `out`.
void append_chunk(std::vector<unsigned char>& out, ChunkType type,
                  const unsigned char* payload, std::size_t payload_size);

/// In-place variant for the staging hot path: the payload was already
/// appended to `out` starting at `payload_start` (after an 8-byte hole
/// left by begin_chunk); finish_chunk patches the frame and appends the
/// CRC. Between begin and finish the caller appends payload bytes only.
std::size_t begin_chunk(std::vector<unsigned char>& out);
void finish_chunk(std::vector<unsigned char>& out, std::size_t frame_start,
                  ChunkType type);

/// One parsed chunk: a view into the loaded log (valid while the log's
/// byte buffer lives).
struct ChunkView {
  ChunkType type{};
  const unsigned char* payload = nullptr;
  std::size_t size = 0;
};

/// Sequential chunk parser over a fully-loaded log. CRC and framing
/// failures stop the scan with an error message naming the offset.
class ChunkScanner {
 public:
  ChunkScanner(const unsigned char* data, std::size_t size);

  /// True once the magic + format version validated.
  [[nodiscard]] bool valid_header() const noexcept { return header_ok_; }
  [[nodiscard]] std::uint32_t format_version() const noexcept {
    return format_version_;
  }

  /// Next chunk, or nullopt at end-of-log or on error (check error()).
  [[nodiscard]] std::optional<ChunkView> next();

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool header_ok_ = false;
  std::uint32_t format_version_ = 0;
  std::string error_;
};

// --- Structured payload codecs ------------------------------------------
// Encoders append to a byte vector; decoders read through a Cursor and
// report failure via the cursor's fail flag (plus their bool return).

void encode_engine_descriptor(std::vector<unsigned char>& out,
                              const engine::EngineDescriptor& desc);
[[nodiscard]] bool decode_engine_descriptor(Cursor& in,
                                            engine::EngineDescriptor* desc);

/// Serializes every deterministic TrackerConfig field. Runtime wiring
/// (the obs sink) is intentionally excluded: it does not change outputs
/// and cannot survive a process boundary.
void encode_tracker_config(std::vector<unsigned char>& out,
                           const core::TrackerConfig& config);
[[nodiscard]] bool decode_tracker_config(Cursor& in,
                                         core::TrackerConfig* config);

void encode_profile(std::vector<unsigned char>& out,
                    const core::CsiProfile& profile);
/// Fails on a truncated payload and on a profile that is not
/// CsiProfile::well_formed().
[[nodiscard]] bool decode_profile(Cursor& in, core::CsiProfile* profile);

void encode_track_result(std::vector<unsigned char>& out,
                         const core::TrackResult& r);
[[nodiscard]] bool decode_track_result(Cursor& in, core::TrackResult* r);

/// Staged size of a CSI sample chunk (frame + payload), for the
/// recorder's no-allocation fit check.
[[nodiscard]] constexpr std::size_t csi_chunk_size(
    std::size_t num_subcarriers) noexcept {
  // id + t + offered + nsc + 2 antennas * nsc * (re, im)
  return chunk_overhead() + 8 + 8 + 1 + 4 + 2 * num_subcarriers * 16;
}
[[nodiscard]] constexpr std::size_t imu_chunk_size() noexcept {
  return chunk_overhead() + 8 + 8 + 8 + 8 + 1;
}
[[nodiscard]] constexpr std::size_t camera_chunk_size() noexcept {
  return chunk_overhead() + 8 + 8 + 8 + 1;
}
/// Per-session bytes inside a kTickEnd payload.
[[nodiscard]] constexpr std::size_t tick_result_entry_size() noexcept {
  return 8 + 1 + 8 + 8 + 1 + 8 + 1 + 8 + 8 + 8 + 8 + 1 + 8 + 8 + 8 + 8;
}

void encode_csi_payload(std::vector<unsigned char>& out, std::uint64_t id,
                        const wifi::CsiMeasurement& m, bool offered);
[[nodiscard]] bool decode_csi_payload(Cursor& in, std::uint64_t* id,
                                      wifi::CsiMeasurement* m,
                                      bool* offered);

void encode_imu_payload(std::vector<unsigned char>& out, std::uint64_t id,
                        const imu::ImuSample& s, bool offered);
[[nodiscard]] bool decode_imu_payload(Cursor& in, std::uint64_t* id,
                                      imu::ImuSample* s, bool* offered);

void encode_camera_payload(std::vector<unsigned char>& out, std::uint64_t id,
                           const camera::CameraTracker::Estimate& e);
[[nodiscard]] bool decode_camera_payload(
    Cursor& in, std::uint64_t* id, camera::CameraTracker::Estimate* e);

}  // namespace vihot::replay
