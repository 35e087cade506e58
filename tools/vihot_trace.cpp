// vihot_trace: record a simulated drive into trace files, or run the
// tracker offline over previously recorded traces — the same record/
// analyze split a real Intel 5300 deployment uses.
//
//   vihot_trace record <prefix> [--seed N] [--duration S] [--steering]
//       writes <prefix>.{csi,imu,truth,profile}
//   vihot_trace track <prefix> [--window-ms N]
//       replays <prefix>.csi/.imu through ViHotTracker and scores
//       against <prefix>.truth

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "sim/experiment.h"
#include "core/profile_io.h"
#include "sim/metrics.h"
#include "util/angle.h"
#include "util/parse_number.h"
#include "wifi/trace_io.h"

namespace {

using namespace vihot;

int record(const std::string& prefix, std::uint64_t seed, double duration,
           bool steering) {
  sim::ScenarioConfig config;
  config.seed = seed;
  config.runtime_duration_s = duration;
  config.steering_events = steering;

  // Build and persist the profile so `track` need not rebuild it.
  sim::ExperimentRunner runner(config);
  const core::CsiProfile profile = runner.build_profile();
  if (!core::save_profile(prefix + ".profile", profile)) {
    std::fprintf(stderr, "error: cannot write %s.profile\n",
                 prefix.c_str());
    return 1;
  }

  util::Rng rng(seed ^ 0xabcdef1234567ULL);
  const motion::HeadPositionGrid grid(config.driver.head_center,
                                      config.num_positions,
                                      config.position_spacing_m);
  util::Rng chan_rng = rng.fork("channel");
  const channel::ChannelModel channel =
      sim::make_channel(config, 0.0, chan_rng);
  wifi::WifiLink link(channel, config.noise, config.scheduler,
                      rng.fork("link"));
  sim::DriveSession session(config, grid.position(grid.count() / 2),
                            rng.fork("drive"));
  const auto csi = link.capture(0.0, duration, [&](double t) {
    return session.cabin_state_at(t);
  });
  imu::PhoneImu phone(imu::PhoneImu::Config{}, rng.fork("imu"));
  const auto imu_samples = phone.capture(0.0, duration,
                                         session.car_dynamics(),
                                         session.steering());

  if (!wifi::write_csi_trace(prefix + ".csi", csi) ||
      !wifi::write_imu_trace(prefix + ".imu", imu_samples)) {
    std::fprintf(stderr, "error: cannot write traces at prefix %s\n",
                 prefix.c_str());
    return 1;
  }
  // Ground truth + profile snapshot for offline scoring.
  {
    std::ofstream os(prefix + ".truth");
    os << "# vihot-truth v1 seed=" << seed << '\n';
    // max_digits10: every double round-trips bit-exactly through the
    // decimal text (precision(12) silently lost the low bits).
    os.precision(std::numeric_limits<double>::max_digits10);
    for (double t = 0.0; t < duration; t += 0.01) {
      os << t << ',' << session.head_at(t).pose.theta << '\n';
    }
  }
  std::printf("recorded %zu CSI frames, %zu IMU samples, %.0f s of truth "
              "and the CSI profile -> %s.{csi,imu,truth,profile}\n",
              csi.size(), imu_samples.size(), duration, prefix.c_str());
  return 0;
}

int track(const std::string& prefix, double window_ms) {
  const auto csi = wifi::read_csi_trace(prefix + ".csi");
  const auto imu_samples = wifi::read_imu_trace(prefix + ".imu");
  if (!csi || !imu_samples) {
    std::fprintf(stderr, "error: cannot read traces at prefix %s\n",
                 prefix.c_str());
    return 1;
  }
  if (csi->empty()) {
    std::fprintf(stderr, "error: %s.csi holds no CSI frames\n",
                 prefix.c_str());
    return 1;
  }
  // Truth file: "t,theta" rows after the header with the seed.
  util::TimeSeries truth;
  std::uint64_t seed = 0;
  {
    std::ifstream is(prefix + ".truth");
    std::string header;
    if (!is || !std::getline(is, header)) {
      std::fprintf(stderr, "error: cannot read %s.truth\n", prefix.c_str());
      return 1;
    }
    const auto pos = header.find("seed=");
    if (pos != std::string::npos) {
      // The seed runs to the next blank (or the end of the line).
      const std::size_t from = pos + 5;
      const std::string value =
          header.substr(from, header.find_first_of(" \t\r", from) - from);
      if (!util::parse_number<std::uint64_t>(value.c_str(), 0, UINT64_MAX,
                                             &seed)) {
        std::fprintf(stderr, "error: bad seed in %s.truth header: %s\n",
                     prefix.c_str(), value.c_str());
        return 1;
      }
    }
    double t = 0.0;
    double theta = 0.0;
    char comma = 0;
    while (is >> t >> comma >> theta) truth.push(t, theta);
  }

  sim::ScenarioConfig config;
  config.seed = seed;
  if (window_ms > 0.0) config.tracker.matcher.window_s = window_ms / 1000.0;
  // Prefer the persisted profile; rebuild from the seed when there is
  // none. A profile file that fails to load is an error, not a reason to
  // track against a different profile.
  core::CsiProfile profile;
  if (std::ifstream(prefix + ".profile")) {
    const auto stored = core::load_profile(prefix + ".profile");
    if (!stored) {
      std::fprintf(stderr, "error: malformed profile %s.profile\n",
                   prefix.c_str());
      return 1;
    }
    profile = *stored;
    std::printf("loaded profile from %s.profile (%zu positions)\n",
                prefix.c_str(), profile.size());
  } else {
    sim::ExperimentRunner runner(config);
    profile = runner.build_profile();
    std::printf("rebuilt profile from seed %llu\n",
                static_cast<unsigned long long>(seed));
  }
  core::ViHotTracker tracker(profile, config.tracker);

  sim::ErrorCollector errors;
  std::size_t ci = 0;
  std::size_t ii = 0;
  const double t_end = csi->back().t;
  for (double t = 1.5; t < t_end; t += 0.05) {
    while (ci < csi->size() && (*csi)[ci].t <= t) {
      tracker.push_csi((*csi)[ci++]);
    }
    while (ii < imu_samples->size() && (*imu_samples)[ii].t <= t) {
      tracker.push_imu((*imu_samples)[ii++]);
    }
    const core::TrackResult r = tracker.estimate(t);
    if (!r.valid || truth.empty()) continue;
    const double theta_true = truth.interpolate(t);
    if (std::abs(theta_true) < 0.035) continue;
    errors.add(sim::angular_error_deg(r.theta_rad, theta_true));
  }
  std::printf("tracked %zu frames offline: median %.1f deg, p90 %.1f, "
              "max %.1f (n=%zu)\n",
              csi->size(), errors.median_deg(),
              errors.percentile_deg(90.0), errors.max_deg(), errors.size());
  return 0;
}

}  // namespace

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s record <prefix> [--seed N] [--duration S] "
               "[--steering]\n"
               "       %s track <prefix> [--window-ms N]\n",
               argv0, argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage(argv[0]);
  const std::string mode = argv[1];
  const std::string prefix = argv[2];
  std::uint64_t seed = 99;
  double duration = 30.0;
  double window_ms = 0.0;
  bool steering = false;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed") {
      seed = util::flag_number<std::uint64_t>(argc, argv, i, 0, UINT64_MAX,
                                              usage);
    } else if (a == "--duration") {
      duration = util::flag_number(argc, argv, i, 0.1, 1e6, usage);
    } else if (a == "--window-ms") {
      window_ms = util::flag_number(argc, argv, i, 1.0, 1e4, usage);
    } else if (a == "--steering") {
      steering = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage(argv[0]);
    }
  }
  if (mode == "record") return record(prefix, seed, duration, steering);
  if (mode == "track") return track(prefix, window_ms);
  std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
  usage(argv[0]);
}
