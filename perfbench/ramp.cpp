// `ramp`: an in-process TrackerEngine, closed loop, where every estimate
// reaches the matcher. Each step feeds every session its next 100 ms of
// synthetic CSI, then runs one explicit drain and one estimate_all. The
// head sweeps back and forth inside the profiled range fast enough that
// no 100 ms window is flat, and every session matches against its own
// synthetic profile, so the profile store holds one profile per session.
#include <cmath>
#include <complex>
#include <numbers>

#include "bench.h"
#include "engine/tracker_engine.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace core = vihot::core;
namespace engine = vihot::engine;
using vihot::wifi::CsiMeasurement;

constexpr double kFrameDt = 0.002;            // 500 Hz CSI
constexpr std::size_t kFramesPerStep = 50;    // 100 ms per step
constexpr std::size_t kSubcarriers = 30;
constexpr std::size_t kWarmupSteps = 15;      // fills the match window
constexpr std::size_t kReferenceSessions = 4;
constexpr std::size_t kReferenceSteps = 300;
constexpr std::size_t kSegmentSteps = 50;     // traced/untraced alternation
constexpr double kProfileRateHz = 200.0;
constexpr std::size_t kProfileSamples = 2000;  // a 10 s profiling sweep

/// Phase-vs-orientation curve of one synthetic profile. Its slope stays
/// in [0.6, 1.3] and the head turns at 1.8-2.1 rad/s, so every 100 ms
/// window spreads between the flat (0.05 rad) and the strong-motion
/// (0.30 rad) thresholds: each estimate runs the same hinted match.
struct Curve {
  double a = 1.0;
  double b = 0.1;
  double c = 2.4;
  double d = 0.0;
  [[nodiscard]] double phase(double theta) const {
    return a * theta + b * std::sin(c * theta + d);
  }
};

/// Triangle sweep between -amp and +amp at `speed` rad/s.
double triangle(double t, double speed, double amp, double offset) {
  const double u = std::fmod(t * speed / (2.0 * amp) + offset, 2.0);
  return amp * (u < 1.0 ? -1.0 + 2.0 * u : 3.0 - 2.0 * u);
}

core::CsiProfile make_profile(const Curve& curve) {
  core::PositionProfile pos;
  pos.fingerprint_phase = curve.phase(0.0);
  pos.csi.dt = 1.0 / kProfileRateHz;
  pos.orientation.dt = pos.csi.dt;
  for (std::size_t k = 0; k < kProfileSamples; ++k) {
    // theta sweeps [-2, 2] at 1.6 rad/s (a 5 s period).
    const double theta =
        triangle(static_cast<double>(k) * pos.csi.dt, 1.6, 2.0, 0.0);
    pos.orientation.values.push_back(theta);
    pos.csi.values.push_back(curve.phase(theta));
  }
  core::CsiProfile profile;
  profile.sample_rate_hz = kProfileRateHz;
  profile.positions.push_back(std::move(pos));
  return profile;
}

struct RampSession {
  Curve curve;
  double speed = 2.0;
  double offset = 0.0;
  std::vector<double> noise;  ///< per-frame phase noise, cycled
  std::shared_ptr<const core::CsiProfile> profile;
  engine::SessionId id = engine::kNoSession;

  [[nodiscard]] double theta(double t) const {
    return triangle(t, speed, 1.5, offset);
  }
  [[nodiscard]] double phase(std::size_t frame) const {
    const double t = static_cast<double>(frame) * kFrameDt;
    return curve.phase(theta(t)) + noise[frame % noise.size()];
  }
};

double step_time(std::size_t step) {
  return static_cast<double>((step + 1) * kFramesPerStep - 1) * kFrameDt;
}

/// Writes one session's frames of `step` into `out` (kFramesPerStep
/// pre-sized measurements; no allocation).
void fill_frames(const RampSession& s, std::size_t step, CsiMeasurement* out) {
  for (std::size_t f = 0; f < kFramesPerStep; ++f) {
    const std::size_t frame = step * kFramesPerStep + f;
    CsiMeasurement& m = out[f];
    m.t = static_cast<double>(frame) * kFrameDt;
    const std::complex<double> z = std::polar(1.0, s.phase(frame));
    std::fill(m.h[0].begin(), m.h[0].end(), z);
    std::fill(m.h[1].begin(), m.h[1].end(), std::complex<double>(1.0, 0.0));
  }
}

std::vector<CsiMeasurement> frame_buffer(std::size_t n) {
  CsiMeasurement proto;
  proto.h[0].assign(kSubcarriers, {});
  proto.h[1].assign(kSubcarriers, {});
  return std::vector<CsiMeasurement>(n, proto);
}

class Ramp : public Workload {
 public:
  explicit Ramp(const Options& opt) : opt_(opt) {}

  bool setup(Report& report) override {
    const std::size_t n = opt_.tiny ? 4 : 24;
    engine::TrackerEngine::Config config;
    config.num_threads = opt_.threads;
    config.sink = &sink_;
    engine_ = std::make_unique<engine::TrackerEngine>(config);

    vihot::util::Rng rng(0x7a3f0000ULL + opt_.seed);
    sessions_.resize(n);
    for (RampSession& s : sessions_) {
      s.curve = {rng.uniform(0.9, 1.0), rng.uniform(0.06, 0.1),
                 rng.uniform(2.0, 3.0), rng.uniform(0.0, 2.0 * std::numbers::pi)};
      s.speed = rng.uniform(1.8, 2.1);
      s.offset = rng.uniform(0.0, 2.0);
      s.noise.resize(997);
      for (double& v : s.noise) v = rng.normal(0.0, 0.01);
      s.profile = engine_->add_profile(make_profile(s.curve));
      s.id = engine_->create_session(s.profile);
    }
    frames_ = frame_buffer(n * kFramesPerStep);
    sample_.assign(std::min(kReferenceSessions, n), {});

    for (std::size_t k = 0; k < kWarmupSteps; ++k) {
      (void)step_once(nullptr, nullptr, report);
    }
    return report.ok;
  }

  void run(Report& report) override {
    Tracer tracer;
    StepStats stats;
    std::vector<double> errors;
    double traced_wall_ms = 0.0;
    const std::size_t n = sessions_.size();
    const auto deadline = after(opt_.seconds);
    for (std::size_t k = 0; Clock::now() < deadline; ++k) {
      const bool traced = opt_.trace && (k / kSegmentSteps) % 2 == 1;
      const auto begin = Clock::now();
      const StepTimes st =
          step_once(traced ? &tracer : nullptr, &errors, report);
      stats.add(st, n, n * kFramesPerStep, traced);
      report.attempted += n + n * kFramesPerStep;
      if (traced) traced_wall_ms += ms_between(begin, Clock::now());
    }

    check_reference(report);
    count_engine_failures(sink_, report);
    stats.report(report, opt_.trace);
    report.set("peak_rss_mb", self_peak_rss_mb());
    report.set("err_p50_deg", percentile(errors, 50));
    report.set("err_p90_deg", percentile(errors, 90));
    if (!opt_.trace) return;

    report_engine_counters(sink_, *engine_, report);
    report_funnel(sink_.tracker, report);
    probe_layers(report);
    report.set_unused({"daemon.feed_mb_per_s", "daemon.sub_dropped",
                       "loadgen.late_ms_p99", "replay.load_s",
                       "sim.record_s"});
    report_trace(tracer, traced_wall_ms, stats.traced_steps(), opt_, report);
  }

 private:
  /// One closed-loop step under one root span: prepare the frames, offer
  /// them, drain, estimate_all, then check the results, keep the
  /// reference sample and (when `errors` is set) the angular errors.
  StepTimes step_once(Tracer* tracer, std::vector<double>* errors,
                      Report& report) {
    const std::size_t n = sessions_.size();
    const auto tick = static_cast<std::uint32_t>(step_);
    ScopedSpan root(tracer, "bench.step", tick);
    {
      ScopedSpan span(tracer, "bench.fill", tick, root.id());
      for (std::size_t i = 0; i < n; ++i) {
        fill_frames(sessions_[i], step_, &frames_[i * kFramesPerStep]);
      }
    }
    StepTimes st;
    st.start = Clock::now();
    std::span<const core::TrackResult> results;
    {
      ScopedSpan span(tracer, "engine.offer", tick, root.id());
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t f = 0; f < kFramesPerStep; ++f) {
          if (!engine_->offer_csi(sessions_[i].id,
                                  frames_[i * kFramesPerStep + f])) {
            report.fail(1, "ramp: offer_csi rejected a frame");
          }
        }
      }
    }
    st.fed = Clock::now();
    {
      ScopedSpan span(tracer, "engine.drain", tick, root.id());
      (void)engine_->drain();
    }
    st.drained = Clock::now();
    {
      ScopedSpan span(tracer, "engine.estimate_all", tick, root.id());
      results = engine_->estimate_all(step_time(step_));
    }
    st.done = Clock::now();

    ScopedSpan check(tracer, "bench.check", tick, root.id());
    last_.assign(results.begin(), results.end());
    if (last_.size() != n) {
      report.fail(n, "ramp: estimate_all returned a short batch");
      last_.resize(n);
    }
    for (const core::TrackResult& r : last_) {
      if (!finite_result(r)) report.fail(1, "ramp: non-finite estimate");
    }
    if (step_ < kReferenceSteps) {
      for (std::size_t i = 0; i < sample_.size(); ++i) {
        sample_[i].push_back(last_[sample_index(i)]);
      }
    }
    if (errors != nullptr) {
      const double t_now = step_time(step_);
      for (std::size_t i = 0; i < n; ++i) {
        const core::TrackResult& r = last_[i];
        if (!r.valid) continue;
        errors->push_back(vihot::sim::angular_error_deg(
            r.theta_rad, sessions_[i].theta(t_now)));
      }
    }
    ++step_;
    return st;
  }

  [[nodiscard]] std::size_t sample_index(std::size_t i) const {
    return i * sessions_.size() / sample_.size();
  }

  /// Inline 0-thread reference pass over the sampled sessions: the same
  /// feeds from step 0, bit-compared against what the pool served.
  void check_reference(Report& report) {
    engine::TrackerEngine reference;
    std::vector<engine::SessionId> ids;
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      ids.push_back(
          reference.create_session(sessions_[sample_index(i)].profile));
    }
    std::vector<CsiMeasurement> frames = frame_buffer(kFramesPerStep);
    std::vector<unsigned char> want;
    std::vector<unsigned char> got;
    const std::size_t steps = sample_.empty() ? 0 : sample_[0].size();
    for (std::size_t step = 0; step < steps; ++step) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        fill_frames(sessions_[sample_index(i)], step, frames.data());
        for (const CsiMeasurement& m : frames) {
          (void)reference.offer_csi(ids[i], m);
        }
      }
      const auto results = reference.estimate_all(step_time(step));
      for (std::size_t i = 0; i < ids.size(); ++i) {
        encode_result(want, results[i]);
        encode_result(got, sample_[i][step]);
        if (opt_.corrupt_reference && step == steps - 1 && i == 0) {
          want[want.size() / 2] ^= 0x01;
        }
        if (want != got) {
          report.fail(1, "ramp: result differs from the 0-thread reference");
        }
      }
    }
  }

  /// Shadow trackers, direct matcher calls and protocol codecs on the
  /// sampled sessions' inputs.
  void probe_layers(Report& report) {
    ShadowTimer timer;
    std::vector<core::ViHotTracker> shadows;
    shadows.reserve(sample_.size());
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      shadows.emplace_back(sessions_[sample_index(i)].profile,
                           timer.config({}));
    }
    std::vector<CsiMeasurement> frames = frame_buffer(kFramesPerStep);
    std::vector<unsigned char> feed;
    std::size_t feed_frames = 0;
    const std::size_t steps = std::min(step_, kReferenceSteps);
    for (std::size_t step = 0; step < steps; ++step) {
      for (std::size_t i = 0; i < shadows.size(); ++i) {
        fill_frames(sessions_[sample_index(i)], step, frames.data());
        for (const CsiMeasurement& m : frames) {
          timer.push_csi(shadows[i], m);
          if (step < 20) {
            append_csi_frame(feed, i, m);
            ++feed_frames;
          }
        }
        (void)timer.estimate(shadows[i], step_time(step));
      }
    }
    timer.report(report);

    const RampSession& s0 = sessions_.front();
    std::vector<double> times;
    std::vector<double> phase;
    for (std::size_t frame = 0; frame < steps * kFramesPerStep; ++frame) {
      times.push_back(static_cast<double>(frame) * kFrameDt);
      phase.push_back(s0.phase(frame));
    }
    const core::PositionProfile& pos = s0.profile->positions.front();
    probe_find_best_match(times, phase, pos.csi.values, kProfileRateHz,
                          core::MatcherConfig{}, report);
    probe_protocol(last_, last_.size(), feed, feed_frames, report);
  }

  Options opt_;
  vihot::obs::Sink sink_;
  std::unique_ptr<engine::TrackerEngine> engine_;
  std::vector<RampSession> sessions_;
  std::vector<CsiMeasurement> frames_;  ///< sessions x kFramesPerStep
  std::vector<core::TrackResult> last_;  ///< the latest step's results
  /// Served results of the reference sessions, per step from step 0.
  std::vector<std::vector<core::TrackResult>> sample_;
  std::size_t step_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ramp(const Options& opt) {
  return std::make_unique<Ramp>(opt);
}

}  // namespace perfbench
