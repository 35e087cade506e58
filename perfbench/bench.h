// Shared pieces of the serving benchmark: options, the per-run report,
// the in-memory span tracer, the recorded drive that `drive` and
// `daemon` serve, and the per-layer probes every workload reuses.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "camera/camera_tracker.h"
#include "core/profile.h"
#include "core/tracker.h"
#include "engine/ingest.h"
#include "imu/imu.h"
#include "obs/sink.h"
#include "wifi/csi.h"

namespace vihot::engine {
class TrackerEngine;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double s_between(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
/// The time point `seconds` from now.
[[nodiscard]] inline Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: a few sessions, a short drive, one set-up.
  bool tiny = false;
  /// Self-test hook: flip one bit of one reference result, which the
  /// output check must count as a failed operation.
  bool corrupt_reference = false;
  /// Load-generator threads and engine workers (the machine's nproc).
  unsigned threads = 4;
  std::string vihotd;    ///< daemon binary (the `daemon` workload)
  std::string work_dir;  ///< scratch directory inside the checkout
};

/// Everything one run reports: operation counts plus named metrics.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run itself broke (set-up failed, daemon died).
  bool ok = true;
  std::string first_failure;
  std::map<std::string, double> metrics;

  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (first_failure.empty()) first_failure = why;
  }
  void broken(const std::string& why) {
    ok = false;
    if (first_failure.empty()) first_failure = why;
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Per-layer metrics of layers the workload does not exercise: 0.
  void set_unused(std::initializer_list<const char*> names) {
    for (const char* name : names) metrics[name] = 0.0;
  }
};

// --- Small numeric helpers ------------------------------------------------

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty input.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Ticks per statistics segment. End-to-end figures are medians, over
/// consecutive segments of a run, of each segment's own figure: a burst
/// of CPU steal from other tenants of the host that covers less than
/// half of the run does not move them. A segment's p95 has ten ticks
/// beyond it.
inline constexpr std::size_t kStatSegment = 200;

/// Median over consecutive segments of `per` values (the last one takes
/// the remainder) of each segment's p-th percentile.
[[nodiscard]] double segment_percentile(const std::vector<double>& values,
                                        std::size_t per, double p);
/// Median over the same segments of sum(num) / sum(den).
[[nodiscard]] double segment_rate(const std::vector<double>& num,
                                  const std::vector<double>& den,
                                  std::size_t per);

/// Canonical bytes of a result (replay::encode_track_result): equal bytes
/// mean the same doubles, NaN payloads included.
void encode_result(std::vector<unsigned char>& out,
                   const vihot::core::TrackResult& r);
[[nodiscard]] bool finite_result(const vihot::core::TrackResult& r);

/// Peak resident set of this process, in MB.
[[nodiscard]] double self_peak_rss_mb();

// --- Tracing ----------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are kept in a
/// vector (name, start, end, parent, tick id) and written out at exit;
/// a null Tracer* means tracing is off and costs one branch per call.
/// Names are string literals of the form "<layer>.<call>".
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::int32_t parent = -1;
    std::uint32_t tick = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  Tracer();

  std::int32_t begin(const char* name, std::uint32_t tick,
                     std::int32_t parent = -1);
  void end(std::int32_t span);
  /// Adds a span measured elsewhere (another thread's timestamps).
  void add(const char* name, std::uint32_t tick, Clock::time_point start,
           Clock::time_point end, std::int32_t parent = -1);

  /// Self time per layer (span duration minus its children), in ms.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Time covered by the direct children of root spans, in ms.
  [[nodiscard]] double covered_ms() const;

  /// Writes one CSV line per span: name,start_ns,end_ns,parent,tick.
  bool write_csv(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint32_t tick,
             std::int32_t parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, tick, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Fills the trace.* rollup metrics: self time per layer per tick, the
/// closure (time the children of root spans cover, over the wall time
/// of the traced parts of the measured loop), and the span dump next to
/// the run.
void report_trace(const Tracer& tracer, double traced_wall_ms,
                  std::size_t ticks, const Options& opt, Report& report);

// --- Closed-loop steps (`ramp`, `drive`) --------------------------------------

/// One step: feeding starts, feeds offered, explicit drain returned,
/// estimate_all returned.
struct StepTimes {
  Clock::time_point start, fed, drained, done;
};

/// Step timings of a closed-loop run: the tick, e2e and throughput
/// metrics from untraced steps (as segment medians, see kStatSegment),
/// plus (traced run) the engine call timings and the traced vs untraced
/// throughput.
class StepStats {
 public:
  void add(const StepTimes& st, std::size_t estimates, std::size_t frames,
           bool traced);
  [[nodiscard]] std::size_t traced_steps() const {
    return steps_[1].tick_ms.size();
  }
  void report(Report& report, bool trace) const;

 private:
  struct Steps {
    std::vector<double> tick_ms;
    std::vector<double> e2e_ms;
    std::vector<double> timed_s;
    std::vector<double> estimates;
  };
  Steps steps_[2];  ///< [untraced, traced]
  std::vector<double> drain_ms_;
  std::vector<double> estimate_ms_;
  double offer_ns_ = 0.0;
  std::uint64_t offered_ = 0;
};

// --- The recorded drive (`drive` and `daemon`) ------------------------------

/// A seeded multi-session drive, simulated and recorded through a
/// replay::Recorder at set-up, then loaded back into per-tick schedules.
/// Session i is the i-th recorded session; every session shares one
/// profile and one TrackerConfig.
struct RecordedDrive {
  enum class Kind : std::uint8_t { kCsi, kImu, kCamera };
  struct Event {
    Kind kind = Kind::kCsi;
    std::uint32_t session = 0;
    std::uint32_t index = 0;  ///< into csi / imu / camera
    double t = 0.0;
  };
  struct Tick {
    double t_now = 0.0;
    std::size_t events_begin = 0;  ///< feeds due before this tick
    std::size_t events_end = 0;
  };

  std::shared_ptr<const vihot::core::CsiProfile> profile;
  vihot::core::TrackerConfig config;
  vihot::engine::IngestConfig ingest;
  std::size_t sessions = 0;

  std::vector<vihot::wifi::CsiMeasurement> csi;
  std::vector<vihot::imu::ImuSample> imu;
  std::vector<vihot::camera::CameraTracker::Estimate> camera;
  std::vector<Event> events;  ///< recorded (consumption) order per tick
  std::vector<Tick> ticks;

  /// Recorded results: ticks x sessions entries of result_bytes each.
  std::vector<unsigned char> expected;
  std::size_t result_bytes = 0;
  /// Recorded results, decoded (shadow trackers and probes).
  std::vector<vihot::core::TrackResult> expected_results;

  // Ground truth of the recording run (served results are bit-compared
  // against the recording, so they share these errors).
  double err_p50_deg = 0.0;
  double err_p90_deg = 0.0;

  double record_s = 0.0;  ///< profiling + simulation + recording
  double load_s = 0.0;    ///< replay::LoadedLog::load

  [[nodiscard]] const unsigned char* expected_at(std::size_t tick,
                                                 std::size_t session) const {
    return expected.data() + (tick * sessions + session) * result_bytes;
  }
};

/// Simulates, records and loads the drive of `seed`. False (with `error`)
/// when any step fails or the recording is not replayable bit-exactly.
bool record_drive(const Options& opt, RecordedDrive* out, std::string* error);

/// Copies of each recorded session in a fleet of `fleet` sessions served
/// from the drive. How many scan events a seed draws moves the drive's
/// share of matched estimates (0.20-0.26 over five seeds) and with it the
/// tick cost, so copies move from the flattest sessions to the busiest
/// ones (or back), within [min_copies, max_copies], until the fleet's
/// matched share is closest to 0.25, the paper's ~3/4 flat drive.
std::vector<std::size_t> apportion(const RecordedDrive& drive,
                                   std::size_t fleet, std::size_t min_copies,
                                   std::size_t max_copies);

// --- Per-layer probes (traced run) ------------------------------------------

/// Times calls into standalone "shadow" ViHotTrackers that replay a
/// sample of sessions single-threaded (core.push_csi_us and the
/// core.estimate_*_us buckets). Trackers must be built with
/// `config()` so their match attempts land in this timer's sink.
class ShadowTimer {
 public:
  [[nodiscard]] vihot::core::TrackerConfig config(
      vihot::core::TrackerConfig base) {
    base.sink = &sink_;
    return base;
  }
  void push_csi(vihot::core::ViHotTracker& tracker,
                const vihot::wifi::CsiMeasurement& m);
  /// Estimates, bucketed by whether the sink counted a match attempt.
  vihot::core::TrackResult estimate(vihot::core::ViHotTracker& tracker,
                                    double t_now);
  void report(Report& report) const;

 private:
  vihot::obs::Sink sink_;
  double push_ns_ = 0.0;
  std::size_t pushes_ = 0;
  std::vector<double> flat_us_;
  std::vector<double> match_us_;
};

/// core.*: shadow trackers replay every recorded session of the drive.
void probe_shadow_trackers(const RecordedDrive& drive, Report& report);

/// dsp.find_best_match_us: direct matcher calls on 100 ms windows cut
/// from `phase` (times + relative phases) against `reference`.
void probe_find_best_match(const std::vector<double>& phase_t,
                           const std::vector<double>& phase,
                           std::span<const double> reference,
                           double reference_rate_hz,
                           const vihot::core::MatcherConfig& matcher,
                           Report& report);

/// daemon.encode_results_us / daemon.parse_ns_per_frame: encode_results
/// per tick over `results`, and a FrameParser over the protocol bytes of
/// `frames` (pre-framed feed stream).
void probe_protocol(std::span<const vihot::core::TrackResult> results,
                    std::size_t per_tick,
                    const std::vector<unsigned char>& frames,
                    std::size_t frame_count, Report& report);

/// Appends the protocol frame a feeder sends for one CSI frame / one
/// recorded feed, addressed to client session id `sid`.
void append_csi_frame(std::vector<unsigned char>& out, std::uint64_t sid,
                      const vihot::wifi::CsiMeasurement& m);
void append_feed_frame(std::vector<unsigned char>& out,
                       const RecordedDrive& drive,
                       const RecordedDrive::Event& event, std::uint64_t sid);

/// core.*_frac and dsp.* funnel ratios from a tracker-stats sink.
void report_funnel(const vihot::obs::TrackerStats& stats, Report& report);

/// engine.frames_rejected / frames_dropped of an in-process engine's
/// sink. Every rejected or dropped fed frame is also a failed operation;
/// runs after every run, traced or not.
void count_engine_failures(const vihot::obs::Sink& sink, Report& report);

/// engine.worker_skew and daemon.batch_us of an in-process engine.
void report_engine_counters(const vihot::obs::Sink& sink,
                            const vihot::engine::TrackerEngine& engine,
                            Report& report);

// --- Workloads ----------------------------------------------------------------

/// One workload: set up (timed, repeated), then run the measured loop.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual bool setup(Report& report) = 0;
  virtual void run(Report& report) = 0;
};

std::unique_ptr<Workload> make_ramp(const Options& opt);
std::unique_ptr<Workload> make_drive(const Options& opt);
std::unique_ptr<Workload> make_daemon(const Options& opt);

}  // namespace perfbench
