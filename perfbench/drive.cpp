// `drive`: an in-process TrackerEngine, closed loop, over a seeded
// multi-session drive recorded at set-up. The recording is replicated to
// 60 sessions that all share its one profile; feeds go
// through offer_csi / offer_imu (push_camera for the camera fallback) in
// recorded order, ticks run at the recorded times, and every result is
// bit-compared against the recording. Most windows are flat (the driver
// faces the road), so sanitize, ingest drain and flat-window handling
// carry a large share of the tick.
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "bench.h"
#include "engine/tracker_engine.h"

namespace perfbench {
namespace {

namespace core = vihot::core;
namespace engine = vihot::engine;

constexpr std::size_t kFleet = 60;         // replicated sessions
constexpr std::size_t kMinCopies = 2;      // per recorded session
constexpr std::size_t kMaxCopies = 10;
constexpr std::size_t kWarmupTicks = 20;
constexpr std::size_t kSegmentTicks = 50;  // traced/untraced alternation

class Drive : public Workload {
 public:
  explicit Drive(const Options& opt) : opt_(opt) {}

  bool setup(Report& report) override {
    std::string error;
    if (!record_drive(opt_, &drive_, &error)) {
      report.broken("drive: " + error);
      return false;
    }
    if (opt_.corrupt_reference) {  // tick 0 of recorded session 0
      drive_.expected[drive_.result_bytes / 2] ^= 0x01;
    }
    engine::TrackerEngine::Config config;
    config.num_threads = opt_.threads;
    config.sink = &sink_;
    config.ingest = drive_.ingest;
    engine_ = std::make_unique<engine::TrackerEngine>(config);
    copies_ = apportion(drive_, opt_.tiny ? 2 * drive_.sessions : kFleet,
                        kMinCopies, kMaxCopies);
    start_pass();
    for (std::size_t k = 0; k < kWarmupTicks; ++k) {
      (void)tick_once(nullptr, report);
    }
    return report.ok;
  }

  void run(Report& report) override {
    Tracer tracer;
    StepStats stats;
    double traced_wall_ms = 0.0;
    const auto deadline = after(opt_.seconds);
    for (std::size_t k = 0; Clock::now() < deadline; ++k) {
      const bool traced = opt_.trace && (k / kSegmentTicks) % 2 == 1;
      const auto begin = Clock::now();
      const RecordedDrive::Tick& tick = drive_.ticks[tick_];
      std::size_t feeds = 0;
      for (std::size_t e = tick.events_begin; e < tick.events_end; ++e) {
        feeds += copies_[drive_.events[e].session];
      }
      const StepTimes st = tick_once(traced ? &tracer : nullptr, report);
      stats.add(st, session_at_.size(), feeds, traced);
      report.attempted += session_at_.size() + feeds;
      if (traced) traced_wall_ms += ms_between(begin, Clock::now());
    }

    count_engine_failures(sink_, report);
    stats.report(report, opt_.trace);
    report.set("peak_rss_mb", self_peak_rss_mb());
    report.set("err_p50_deg", drive_.err_p50_deg);
    report.set("err_p90_deg", drive_.err_p90_deg);
    if (!opt_.trace) return;

    report_engine_counters(sink_, *engine_, report);
    report_funnel(sink_.tracker, report);
    probe_shadow_trackers(drive_, report);
    std::vector<unsigned char> feed;
    std::size_t feed_frames = 0;
    for (std::size_t t = 0; t < std::min<std::size_t>(20, drive_.ticks.size());
         ++t) {
      for (std::size_t e = drive_.ticks[t].events_begin;
           e < drive_.ticks[t].events_end; ++e) {
        append_feed_frame(feed, drive_, drive_.events[e],
                          drive_.events[e].session);
        ++feed_frames;
      }
    }
    probe_protocol(drive_.expected_results, drive_.sessions, feed,
                   feed_frames, report);
    report.set("replay.load_s", drive_.load_s);
    report.set("sim.record_s", drive_.record_s);
    report.set_unused(
        {"daemon.feed_mb_per_s", "daemon.sub_dropped", "loadgen.late_ms_p99"});
    report_trace(tracer, traced_wall_ms, stats.traced_steps(), opt_, report);
  }

 private:
  /// Fresh sessions for a new pass over the drive.
  void start_pass() {
    for (const auto& ids : ids_) {
      for (const engine::SessionId id : ids) engine_->destroy_session(id);
    }
    ids_.assign(drive_.sessions, {});
    // Result order is the engine's roster order: map each position back
    // to its recorded session.
    std::unordered_map<engine::SessionId, std::size_t> session_of;
    for (std::size_t s = 0; s < drive_.sessions; ++s) {
      for (std::size_t c = 0; c < copies_[s]; ++c) {
        const engine::SessionId id =
            engine_->create_session(drive_.profile, drive_.config);
        ids_[s].push_back(id);
        session_of[id] = s;
      }
    }
    session_at_.clear();
    for (const engine::SessionId id : engine_->session_ids()) {
      session_at_.push_back(session_of.at(id));
    }
    tick_ = 0;
  }

  /// One tick under one root span: offer the tick's recorded feeds,
  /// drain, estimate_all, then bit-compare the results (and start a new
  /// pass after the drive's last tick).
  StepTimes tick_once(Tracer* tracer, Report& report) {
    const RecordedDrive::Tick& tick = drive_.ticks[tick_];
    const auto tick_id = static_cast<std::uint32_t>(tick_);
    ScopedSpan root(tracer, "bench.step", tick_id);
    StepTimes tt;
    tt.start = Clock::now();
    std::span<const core::TrackResult> results;
    {
      ScopedSpan span(tracer, "engine.offer", tick_id, root.id());
      for (std::size_t e = tick.events_begin; e < tick.events_end; ++e) {
        const RecordedDrive::Event& ev = drive_.events[e];
        for (const engine::SessionId id : ids_[ev.session]) {
          bool ok = true;
          switch (ev.kind) {
            case RecordedDrive::Kind::kCsi:
              ok = engine_->offer_csi(id, drive_.csi[ev.index]);
              break;
            case RecordedDrive::Kind::kImu:
              ok = engine_->offer_imu(id, drive_.imu[ev.index]);
              break;
            case RecordedDrive::Kind::kCamera:
              ok = engine_->push_camera(id, drive_.camera[ev.index]);
              break;
          }
          if (!ok) report.fail(1, "drive: a recorded feed was rejected");
        }
      }
    }
    tt.fed = Clock::now();
    {
      ScopedSpan span(tracer, "engine.drain", tick_id, root.id());
      (void)engine_->drain();
    }
    tt.drained = Clock::now();
    {
      ScopedSpan span(tracer, "engine.estimate_all", tick_id, root.id());
      results = engine_->estimate_all(tick.t_now);
    }
    tt.done = Clock::now();

    ScopedSpan check(tracer, "bench.check", tick_id, root.id());
    if (results.size() != session_at_.size()) {
      report.fail(session_at_.size(),
                  "drive: estimate_all returned a short batch");
    } else {
      for (std::size_t p = 0; p < results.size(); ++p) {
        encode_result(bytes_, results[p]);
        if (!finite_result(results[p]) ||
            std::memcmp(bytes_.data(), drive_.expected_at(tick_, session_at_[p]),
                        drive_.result_bytes) != 0) {
          report.fail(1, "drive: result differs from the recording");
        }
      }
    }
    if (++tick_ == drive_.ticks.size()) start_pass();
    return tt;
  }

  Options opt_;
  RecordedDrive drive_;
  vihot::obs::Sink sink_;
  std::unique_ptr<engine::TrackerEngine> engine_;
  std::vector<std::size_t> copies_;  ///< per recorded session
  /// Live engine sessions of each recorded session.
  std::vector<std::vector<engine::SessionId>> ids_;
  std::vector<std::size_t> session_at_;  ///< result position -> session
  std::size_t tick_ = 0;                 ///< next tick of the pass
  std::vector<unsigned char> bytes_;
};

}  // namespace

std::unique_ptr<Workload> make_drive(const Options& opt) {
  return std::make_unique<Drive>(opt);
}

}  // namespace perfbench
