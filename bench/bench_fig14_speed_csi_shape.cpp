// Fig. 14 reproduction: rotation speed compresses/stretches the CSI phase
// curve in time while preserving its shape — the reason Algorithm 1 must
// try candidate lengths 0.5W..2W and warp with DTW (Sec. 3.4.4).

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "core/sanitizer.h"
#include "dsp/dtw.h"
#include "dsp/resampler.h"
#include "motion/head_trajectory.h"
#include "util/angle.h"
#include "wifi/link.h"

namespace {

// Captures the sanitized phase of one full sweep at a given speed.
vihot::util::UniformSeries sweep_phase(double speed_rad_s,
                                       std::uint64_t seed) {
  using namespace vihot;
  const channel::CabinScene scene = channel::make_cabin_scene();
  const channel::ChannelModel model(scene, channel::SubcarrierGrid{},
                                    channel::HeadScatterModel{});
  wifi::WifiLink link(model, wifi::NoiseConfig{}, wifi::SchedulerConfig{},
                      util::Rng(seed));
  motion::SweepTrajectory::Config cfg;
  cfg.speed_rad_s = speed_rad_s;
  const motion::SweepTrajectory sweep(cfg, scene.driver_head_center);
  const auto capture =
      link.capture(0.0, sweep.period(), [&](double t) {
        channel::CabinState st;
        st.head = sweep.at(t).pose;
        return st;
      });
  const core::CsiSanitizer sanitizer;
  return dsp::resample(sanitizer.phase_series(capture), 200.0);
}

}  // namespace

int main() {
  using namespace vihot;
  util::banner(std::cout, "Fig. 14: rotation speed affects the CSI curve");
  bench::paper_reference(
      "faster rotation compresses the same curve in time; the SHAPE is "
      "preserved (DTW-alignable), only the duration changes");

  const util::UniformSeries slow = sweep_phase(util::deg_to_rad(80.0), 11);
  const util::UniformSeries fast = sweep_phase(util::deg_to_rad(160.0), 12);

  std::printf("\nslow sweep (80 deg/s):  %zu samples over %.2f s\n",
              slow.size(), slow.end_time());
  std::printf("fast sweep (160 deg/s): %zu samples over %.2f s\n",
              fast.size(), fast.end_time());
  std::printf("\nfraction-of-sweep  phase_slow(rad)  phase_fast(rad)\n");
  for (double f = 0.0; f <= 1.0; f += 0.1) {
    const auto si = static_cast<std::size_t>(
        f * static_cast<double>(slow.size() - 1));
    const auto fi = static_cast<std::size_t>(
        f * static_cast<double>(fast.size() - 1));
    std::printf("%17.1f  %+15.3f  %+15.3f\n", f, slow.values[si],
                fast.values[fi]);
  }

  // Shape preservation: DTW distance between the two sweeps is tiny
  // relative to the distance between the slow sweep and a flat line.
  const double d_pair =
      dsp::dtw_distance_normalized(slow.values, fast.values);
  std::vector<double> flat(slow.size(), slow.values.front());
  const double d_flat = dsp::dtw_distance_normalized(slow.values, flat);
  std::printf(
      "\nresult: duration ratio %.2f (speed ratio 2.0); normalized DTW "
      "distance slow-vs-fast %.4f << slow-vs-flat %.4f -> same shape, "
      "different speed (what Algorithm 1's 0.5W..2W search absorbs)\n",
      slow.end_time() / fast.end_time(), d_pair, d_flat);
  return 0;
}
