// Helpers shared by the workloads: statistics, the span tracer, the
// recorded drive, and the per-layer probes of the traced run.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "core/sanitizer.h"
#include "daemon/protocol.h"
#include "dsp/resampler.h"
#include "dsp/series_match.h"
#include "engine/tracker_engine.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "replay/vrlog.h"
#include "sim/fleet.h"
#include "util/time_series.h"

namespace perfbench {

namespace core = vihot::core;
namespace replay = vihot::replay;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

/// [begin, end) of consecutive segments of `per` entries out of `n`: the
/// last segment takes the remainder, and fewer than 2 * per is one.
std::vector<std::pair<std::size_t, std::size_t>> segments(std::size_t n,
                                                          std::size_t per) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t count = std::max<std::size_t>(1, n / per);
  for (std::size_t k = 0; k < count; ++k) {
    out.emplace_back(k * per, k + 1 == count ? n : (k + 1) * per);
  }
  return out;
}

}  // namespace

double segment_percentile(const std::vector<double>& values, std::size_t per,
                          double p) {
  std::vector<double> figures;
  for (const auto& [begin, end] : segments(values.size(), per)) {
    figures.push_back(percentile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(begin),
                            values.begin() + static_cast<std::ptrdiff_t>(end)),
        p));
  }
  return percentile(figures, 50);
}

double segment_rate(const std::vector<double>& num,
                    const std::vector<double>& den, std::size_t per) {
  std::vector<double> figures;
  for (const auto& [begin, end] : segments(num.size(), per)) {
    double n = 0.0;
    double d = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      n += num[i];
      d += den[i];
    }
    if (d > 0.0) figures.push_back(n / d);
  }
  return percentile(figures, 50);
}

void encode_result(std::vector<unsigned char>& out,
                   const core::TrackResult& r) {
  out.clear();
  replay::encode_track_result(out, r);
}

bool finite_result(const core::TrackResult& r) {
  return std::isfinite(r.t) && std::isfinite(r.theta_rad);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Tracer -------------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1u << 16); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t Tracer::begin(const char* name, std::uint32_t tick,
                           std::int32_t parent) {
  spans_.push_back(Span{name, parent, tick, now_ns(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

void Tracer::add(const char* name, std::uint32_t tick,
                 Clock::time_point start, Clock::time_point end,
                 std::int32_t parent) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  spans_.push_back(Span{name, parent, tick, ns(start), ns(end)});
}

namespace {

std::vector<std::int64_t> child_ns(const std::vector<Tracer::Span>& spans) {
  std::vector<std::int64_t> sum(spans.size(), 0);
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      sum[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  return sum;
}

}  // namespace

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::vector<std::int64_t> children = child_ns(spans_);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* dot = std::strchr(s.name, '.');
    const std::string layer =
        dot != nullptr ? std::string(s.name, dot) : std::string(s.name);
    out[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - children[i]) / 1e6;
  }
  return out;
}

double Tracer::covered_ms() const {
  std::int64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].parent < 0) {
      covered += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(covered) / 1e6;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "name,start_ns,end_ns,parent,tick\n";
  for (const Span& s : spans_) {
    os << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent
       << ',' << s.tick << '\n';
  }
  return static_cast<bool>(os);
}

void report_trace(const Tracer& tracer, double traced_wall_ms,
                  std::size_t ticks, const Options& opt, Report& report) {
  const std::map<std::string, double> self = tracer.self_ms_by_layer();
  const double per_tick = ticks > 0 ? 1.0 / static_cast<double>(ticks) : 0.0;
  for (const char* layer : {"bench", "engine", "loadgen", "daemon"}) {
    const auto it = self.find(layer);
    report.set(std::string("trace.self_ms.") + layer,
               it != self.end() ? it->second * per_tick : 0.0);
  }
  report.set("trace.closure_frac", traced_wall_ms > 0.0
                                       ? tracer.covered_ms() / traced_wall_ms
                                       : 0.0);
  const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".csv";
  if (!tracer.write_csv(path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
}

void StepStats::add(const StepTimes& st, std::size_t estimates,
                    std::size_t frames, bool traced) {
  Steps& s = steps_[traced ? 1 : 0];
  s.tick_ms.push_back(ms_between(st.fed, st.done));
  s.e2e_ms.push_back(ms_between(st.start, st.done));
  s.timed_s.push_back(s_between(st.start, st.done));
  s.estimates.push_back(static_cast<double>(estimates));
  drain_ms_.push_back(ms_between(st.fed, st.drained));
  estimate_ms_.push_back(ms_between(st.drained, st.done));
  offer_ns_ += ms_between(st.start, st.fed) * 1e6;
  offered_ += frames;
}

void StepStats::report(Report& report, bool trace) const {
  const Steps& s = steps_[0];
  report.set("ticks", static_cast<double>(s.tick_ms.size()));
  report.set("tick_p50_ms", segment_percentile(s.tick_ms, kStatSegment, 50));
  report.set("tick_p95_ms", segment_percentile(s.tick_ms, kStatSegment, 95));
  report.set("e2e_p50_ms", segment_percentile(s.e2e_ms, kStatSegment, 50));
  report.set("e2e_p95_ms", segment_percentile(s.e2e_ms, kStatSegment, 95));
  report.set("estimates_per_s",
             segment_rate(s.estimates, s.timed_s, kStatSegment));
  if (!trace) return;
  report.set("engine.offer_ns",
             offered_ > 0 ? offer_ns_ / static_cast<double>(offered_) : 0.0);
  report.set("engine.drain_ms", mean(drain_ms_));
  report.set("engine.estimate_all_ms_p50", percentile(estimate_ms_, 50));
  report.set("engine.estimate_all_ms_p99", percentile(estimate_ms_, 99));
  const auto rate = [](const Steps& x) {
    double estimates = 0.0;
    double seconds = 0.0;
    for (std::size_t i = 0; i < x.timed_s.size(); ++i) {
      estimates += x.estimates[i];
      seconds += x.timed_s[i];
    }
    return seconds > 0.0 ? estimates / seconds : 0.0;
  };
  const double untraced = rate(steps_[0]);
  const double traced = rate(steps_[1]);
  if (untraced > 0.0 && traced > 0.0) {
    report.set("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
  }
}

// --- Recorded drive -------------------------------------------------------------

bool record_drive(const Options& opt, RecordedDrive* out,
                  std::string* error) {
  vihot::sim::ScenarioConfig config;
  config.seed = 0x5eed0000ULL + opt.seed;
  config.runtime_sessions = opt.tiny ? 2 : 12;
  config.runtime_duration_s = opt.tiny ? 3.0 : 20.0;
  if (opt.tiny) {
    config.num_positions = 3;
    config.profiling_sweep_s = 3.0;
  }
  // The 10 Hz serving tick, from the first 100 ms on, so every tick's
  // feeds fit the ingest rings and nothing is dropped at record time.
  config.estimate_rate_hz = 10.0;
  config.warmup_s = 0.1;
  config.async_ingest = true;

  const std::string path = opt.work_dir + "/drive-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".vrlog";
  const auto t0 = Clock::now();
  vihot::sim::FleetResult fleet;
  {
    replay::Recorder::Config rc;
    rc.path = path;
    rc.staging_bytes = 16u << 20;  // no staging drops: replayable log
    replay::Recorder recorder(rc);
    if (!recorder.ok()) {
      *error = "recorder: " + recorder.error();
      return false;
    }
    fleet = vihot::sim::run_fleet(config, opt.threads, nullptr, &recorder);
    if (!recorder.close() || recorder.totals().truncated) {
      *error = "recording failed or truncated: " + recorder.error();
      return false;
    }
  }
  out->record_s = s_between(t0, Clock::now());
  out->err_p50_deg = fleet.errors.median_deg();
  out->err_p90_deg = fleet.errors.percentile_deg(90.0);

  const auto t1 = Clock::now();
  const replay::LoadedLog log = replay::LoadedLog::load(path);
  out->load_s = s_between(t1, Clock::now());
  std::remove(path.c_str());
  if (!log.ok()) {
    *error = "load: " + log.error();
    return false;
  }
  out->ingest = log.summary().engine.ingest;

  std::unordered_map<std::uint64_t, std::uint32_t> index;
  std::vector<unsigned char> bytes;
  std::size_t events_begin = 0;
  const auto fail = [error](const std::string& msg) {
    *error = msg;
    return false;
  };
  for (const replay::ChunkView& chunk : log.chunks()) {
    replay::Cursor in(chunk.payload, chunk.size);
    switch (chunk.type) {
      case replay::ChunkType::kProfile: {
        if (out->profile) return fail("drive has more than one profile");
        core::CsiProfile profile;
        if (!replay::decode_profile(in, &profile)) return fail("bad profile");
        out->profile = std::make_shared<const core::CsiProfile>(
            std::move(profile));
        break;
      }
      case replay::ChunkType::kSessionStart: {
        const std::uint64_t id = in.get_u64();
        (void)in.get_u32();  // profile hash: the one profile
        if (!replay::decode_tracker_config(in, &out->config)) {
          return fail("bad session config");
        }
        index[id] = static_cast<std::uint32_t>(out->sessions++);
        break;
      }
      case replay::ChunkType::kCsi: {
        std::uint64_t id = 0;
        vihot::wifi::CsiMeasurement m;
        bool offered = false;
        if (!replay::decode_csi_payload(in, &id, &m, &offered)) {
          return fail("bad CSI chunk");
        }
        out->events.push_back({RecordedDrive::Kind::kCsi, index.at(id),
                               static_cast<std::uint32_t>(out->csi.size()),
                               m.t});
        out->csi.push_back(std::move(m));
        break;
      }
      case replay::ChunkType::kImu: {
        std::uint64_t id = 0;
        vihot::imu::ImuSample s;
        bool offered = false;
        if (!replay::decode_imu_payload(in, &id, &s, &offered)) {
          return fail("bad IMU chunk");
        }
        out->events.push_back({RecordedDrive::Kind::kImu, index.at(id),
                               static_cast<std::uint32_t>(out->imu.size()),
                               s.t});
        out->imu.push_back(s);
        break;
      }
      case replay::ChunkType::kCamera: {
        std::uint64_t id = 0;
        vihot::camera::CameraTracker::Estimate e;
        if (!replay::decode_camera_payload(in, &id, &e)) {
          return fail("bad camera chunk");
        }
        out->events.push_back(
            {RecordedDrive::Kind::kCamera, index.at(id),
             static_cast<std::uint32_t>(out->camera.size()), e.t});
        out->camera.push_back(e);
        break;
      }
      case replay::ChunkType::kTickBegin: {
        const double t_now = in.get_f64();
        out->ticks.push_back({t_now, events_begin, out->events.size()});
        events_begin = out->events.size();
        break;
      }
      case replay::ChunkType::kTickEnd: {
        (void)in.get_f64();
        const std::uint64_t n = in.get_u64();
        if (n != out->sessions) return fail("tick without every session");
        if (out->result_bytes == 0) {
          out->result_bytes = replay::tick_result_entry_size() - 8;
        }
        const std::size_t tick = out->ticks.size() - 1;
        out->expected.resize((tick + 1) * n * out->result_bytes);
        out->expected_results.resize((tick + 1) * n);
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::uint32_t s = index.at(in.get_u64());
          core::TrackResult r;
          if (!replay::decode_track_result(in, &r)) {
            return fail("bad tick result");
          }
          encode_result(bytes, r);
          if (bytes.size() != out->result_bytes) {
            return fail("unexpected result size");
          }
          std::memcpy(out->expected.data() +
                          (tick * n + s) * out->result_bytes,
                      bytes.data(), bytes.size());
          out->expected_results[tick * n + s] = r;
        }
        break;
      }
      case replay::ChunkType::kSessionEnd:
        return fail("drive must not end sessions mid-run");
      default:
        break;
    }
  }
  if (!out->profile || out->sessions == 0 || out->ticks.empty()) {
    return fail("empty drive");
  }
  return true;
}

std::vector<std::size_t> apportion(const RecordedDrive& drive,
                                   std::size_t fleet, std::size_t min_copies,
                                   std::size_t max_copies) {
  constexpr double kMatchShare = 0.25;
  const std::size_t n = drive.sessions;
  std::vector<double> matched(n, 0.0);
  for (std::size_t t = 0; t < drive.ticks.size(); ++t) {
    for (std::size_t s = 0; s < n; ++s) {
      matched[s] += drive.expected_results[t * n + s].raw.valid ? 1.0 : 0.0;
    }
  }
  std::vector<std::size_t> copies(n, fleet / n);
  for (std::size_t s = 0; s < fleet % n; ++s) ++copies[s];
  const double per_copy =
      1.0 / (static_cast<double>(fleet) *
             static_cast<double>(drive.ticks.size()));
  double share = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    share += static_cast<double>(copies[s]) * matched[s] * per_copy;
  }
  for (;;) {
    const bool raise = share < kMatchShare;
    std::size_t from = n;
    std::size_t to = n;
    for (std::size_t s = 0; s < n; ++s) {
      const bool busier_from = from == n || (raise ? matched[s] < matched[from]
                                                   : matched[s] > matched[from]);
      const bool busier_to = to == n || (raise ? matched[s] > matched[to]
                                               : matched[s] < matched[to]);
      if (copies[s] > min_copies && busier_from) from = s;
      if (copies[s] < max_copies && busier_to) to = s;
    }
    if (from == n || to == n || from == to) break;
    const double next = share + (matched[to] - matched[from]) * per_copy;
    if (std::abs(next - kMatchShare) >= std::abs(share - kMatchShare)) break;
    --copies[from];
    ++copies[to];
    share = next;
  }
  return copies;
}

// --- Per-layer probes -----------------------------------------------------------

void ShadowTimer::push_csi(core::ViHotTracker& tracker,
                           const vihot::wifi::CsiMeasurement& m) {
  const auto t0 = Clock::now();
  tracker.push_csi(m);
  push_ns_ += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count();
  ++pushes_;
}

core::TrackResult ShadowTimer::estimate(core::ViHotTracker& tracker,
                                        double t_now) {
  const std::uint64_t before = sink_.tracker.match_attempts.value();
  const auto t0 = Clock::now();
  const core::TrackResult r = tracker.estimate(t_now);
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  (sink_.tracker.match_attempts.value() != before ? match_us_ : flat_us_)
      .push_back(us);
  return r;
}

void ShadowTimer::report(Report& report) const {
  report.set("core.push_csi_us",
             pushes_ > 0 ? push_ns_ / static_cast<double>(pushes_) / 1e3
                         : 0.0);
  report.set("core.estimate_flat_us", mean(flat_us_));
  report.set("core.estimate_match_us", mean(match_us_));
  // Fleet-wide funnel counters win where the workload has its own sink.
  if (report.metrics.count("core.flat_frac") == 0) {
    report_funnel(sink_.tracker, report);
  }
}

void probe_shadow_trackers(const RecordedDrive& drive, Report& report) {
  ShadowTimer timer;
  std::vector<core::ViHotTracker> shadows;
  shadows.reserve(drive.sessions);
  for (std::size_t s = 0; s < drive.sessions; ++s) {
    shadows.emplace_back(drive.profile, timer.config(drive.config));
  }
  for (const RecordedDrive::Tick& tick : drive.ticks) {
    for (std::size_t e = tick.events_begin; e < tick.events_end; ++e) {
      const RecordedDrive::Event& ev = drive.events[e];
      core::ViHotTracker& tracker = shadows[ev.session];
      switch (ev.kind) {
        case RecordedDrive::Kind::kCsi:
          timer.push_csi(tracker, drive.csi[ev.index]);
          break;
        case RecordedDrive::Kind::kImu:
          tracker.push_imu(drive.imu[ev.index]);
          break;
        case RecordedDrive::Kind::kCamera:
          tracker.push_camera(drive.camera[ev.index]);
          break;
      }
    }
    for (core::ViHotTracker& tracker : shadows) {
      (void)timer.estimate(tracker, tick.t_now);
    }
  }
  timer.report(report);

  // dsp: windows of session 0's sanitized phase against the slot its
  // last recorded estimate matched in.
  const core::CsiSanitizer sanitizer(drive.config.sanitizer);
  std::vector<double> times;
  std::vector<double> phase;
  for (const RecordedDrive::Event& ev : drive.events) {
    if (ev.session != 0 || ev.kind != RecordedDrive::Kind::kCsi) continue;
    const vihot::wifi::CsiMeasurement& m = drive.csi[ev.index];
    times.push_back(m.t);
    phase.push_back(drive.profile->relative_phase(sanitizer.phase(m)));
  }
  const core::TrackResult& last =
      drive.expected_results[(drive.ticks.size() - 1) * drive.sessions];
  const std::size_t slot =
      std::min(last.position_slot, drive.profile->size() - 1);
  const core::PositionProfile& position = drive.profile->positions[slot];
  probe_find_best_match(times, phase, position.csi.values,
                        1.0 / position.csi.dt, drive.config.matcher, report);
}

void probe_find_best_match(const std::vector<double>& phase_t,
                           const std::vector<double>& phase,
                           std::span<const double> reference,
                           double reference_rate_hz,
                           const core::MatcherConfig& matcher,
                           Report& report) {
  vihot::util::TimeSeries series;
  for (std::size_t i = 0; i < phase.size(); ++i) {
    series.push(phase_t[i], phase[i]);
  }
  // The same query geometry and options OrientationEstimator uses, as
  // an unconstrained (global) search.
  vihot::dsp::SeriesMatchOptions options;
  options.min_length_factor = matcher.min_length_factor;
  options.max_length_factor = matcher.max_length_factor;
  options.num_lengths = matcher.num_lengths;
  options.start_stride = matcher.start_stride;
  options.dtw.band_fraction = matcher.band_fraction;
  options.max_dc_offset = matcher.max_dc_offset_rad;
  const auto count = std::max<std::size_t>(
      matcher.min_query_samples,
      static_cast<std::size_t>(
          std::round(matcher.window_s * reference_rate_hz)) +
          1);

  std::vector<double> us;
  if (series.size() >= 2 && series.duration() > 2.0 * matcher.window_s) {
    const double first = series.front().t + matcher.window_s;
    const double span = series.back().t - first;
    const std::size_t windows = 200;
    for (std::size_t k = 0; k < windows; ++k) {
      const double t = first + span * static_cast<double>(k) /
                                   static_cast<double>(windows - 1);
      const vihot::util::UniformSeries query = vihot::dsp::resample_window(
          series, t - matcher.window_s, t, count);
      const auto t0 = Clock::now();
      (void)vihot::dsp::find_best_match(query.values, reference, options);
      us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
  }
  report.set("dsp.find_best_match_us", mean(us));
}

void append_csi_frame(std::vector<unsigned char>& out, std::uint64_t sid,
                      const vihot::wifi::CsiMeasurement& m) {
  std::vector<unsigned char> payload;
  replay::encode_csi_payload(payload, sid, m, /*offered=*/true);
  vihot::daemon::append_frame(out, vihot::daemon::MsgType::kCsi, payload);
}

void append_feed_frame(std::vector<unsigned char>& out,
                       const RecordedDrive& drive,
                       const RecordedDrive::Event& event, std::uint64_t sid) {
  std::vector<unsigned char> payload;
  switch (event.kind) {
    case RecordedDrive::Kind::kCsi:
      append_csi_frame(out, sid, drive.csi[event.index]);
      return;
    case RecordedDrive::Kind::kImu:
      replay::encode_imu_payload(payload, sid, drive.imu[event.index],
                                 /*offered=*/true);
      vihot::daemon::append_frame(out, vihot::daemon::MsgType::kImu,
                                  payload);
      return;
    case RecordedDrive::Kind::kCamera:
      replay::encode_camera_payload(payload, sid, drive.camera[event.index]);
      vihot::daemon::append_frame(out, vihot::daemon::MsgType::kCamera,
                                  payload);
      return;
  }
}

void probe_protocol(std::span<const core::TrackResult> results,
                    std::size_t per_tick,
                    const std::vector<unsigned char>& frames,
                    std::size_t frame_count, Report& report) {
  // encode_results: one call per tick, repeated until ~20 ms accrued.
  std::vector<std::uint64_t> ids(per_tick);
  for (std::size_t i = 0; i < per_tick; ++i) ids[i] = i + 1;
  std::vector<unsigned char> payload;
  payload.reserve(per_tick * 160 + 64);
  const std::size_t ticks = per_tick > 0 ? results.size() / per_tick : 0;
  double encode_us = 0.0;
  std::size_t calls = 0;
  while (ticks > 0 && encode_us < 20e3) {
    for (std::size_t k = 0; k < ticks; ++k) {
      payload.clear();
      const auto t0 = Clock::now();
      vihot::daemon::encode_results(payload, static_cast<double>(k),
                                    ids.data(), results.data() + k * per_tick,
                                    per_tick);
      encode_us +=
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count();
      ++calls;
    }
  }
  report.set("daemon.encode_results_us",
             calls > 0 ? encode_us / static_cast<double>(calls) : 0.0);

  // FrameParser over the fed byte stream, in socket-read-sized pieces.
  constexpr std::size_t kRead = 64 * 1024;
  double parse_ns = 0.0;
  std::size_t parsed = 0;
  for (int rep = 0; rep < 3 && frame_count > 0; ++rep) {
    vihot::daemon::FrameParser parser;
    const auto t0 = Clock::now();
    for (std::size_t off = 0; off < frames.size(); off += kRead) {
      parser.feed(frames.data() + off, std::min(kRead, frames.size() - off));
      while (parser.next()) ++parsed;
    }
    parse_ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
    if (parser.failed()) report.fail(1, "frame parser: " + parser.error());
  }
  report.set("daemon.parse_ns_per_frame",
             parsed > 0 ? parse_ns / static_cast<double>(parsed) : 0.0);
}

void report_funnel(const vihot::obs::TrackerStats& stats, Report& report) {
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const std::uint64_t estimates = stats.estimates.value();
  const std::uint64_t attempts = stats.match_attempts.value();
  const std::uint64_t candidates = stats.match_candidates.value();
  report.set("core.flat_frac", ratio(stats.window_flat.value(), estimates));
  report.set("core.match_frac",
             ratio(stats.window_hinted.value() + stats.window_global.value(),
                   estimates));
  report.set("core.relock_frac",
             ratio(stats.relock_widen.value() + stats.relock_global.value(),
                   estimates));
  report.set("dsp.candidates_per_match", ratio(candidates, attempts));
  report.set("dsp.prune_frac",
             ratio(stats.match_lb_endpoint_pruned.value() +
                       stats.match_lb_band_pruned.value(),
                   candidates));
  report.set("dsp.abandon_frac",
             ratio(stats.match_dtw_abandoned.value(), candidates));
  report.set("dsp.dtw_per_match",
             ratio(stats.match_dtw_evaluated.value(), attempts));
}

void count_engine_failures(const vihot::obs::Sink& sink, Report& report) {
  const vihot::obs::EngineStats& es = sink.engine;
  const vihot::obs::IngestStats& is = sink.ingest;
  const std::uint64_t rejected =
      es.out_of_order_csi.value() + es.out_of_order_imu.value() +
      es.out_of_order_camera.value() + es.non_finite_csi.value() +
      es.non_finite_imu.value() + es.non_finite_camera.value();
  const std::uint64_t dropped =
      is.csi_dropped_newest.value() + is.csi_dropped_oldest.value() +
      is.imu_dropped_newest.value() + is.imu_dropped_oldest.value();
  report.set("engine.frames_rejected", static_cast<double>(rejected));
  report.set("engine.frames_dropped", static_cast<double>(dropped));
  if (rejected + dropped > 0) {
    report.fail(rejected + dropped, "engine: fed frames rejected or dropped");
  }
}

void report_engine_counters(const vihot::obs::Sink& sink,
                            const vihot::engine::TrackerEngine& engine,
                            Report& report) {
  const vihot::obs::EngineStats& es = sink.engine;
  const std::vector<std::uint64_t> items = engine.worker_items_drained();
  double sum = 0.0;
  double max = 0.0;
  for (const std::uint64_t v : items) {
    sum += static_cast<double>(v);
    max = std::max(max, static_cast<double>(v));
  }
  report.set("engine.worker_skew",
             sum > 0.0 ? max / (sum / static_cast<double>(items.size()))
                       : 0.0);
  report.set("daemon.batch_us", es.batch_latency_us.mean());
}

}  // namespace perfbench
