// Microbenchmarks (google-benchmark) for the compute kernels behind the
// real-time claim of Sec. 7: ViHOT needs only 1D series matching, far
// cheaper than 2D image processing. These measure the DTW kernel, its
// lane-batched form, the full Algorithm-1 segment search, the sanitizer,
// the per-frame stable-phase detector, and the channel synthesizer, so
// regressions in the hot paths are visible.
//
// Benchmarks with a `simd` argument run the same workload through forced
// kernel dispatch (dsp/simd.h): simd=0 pins the scalar table, simd=1 the
// AVX2 table (skipped with an error when the host lacks AVX2). Both
// variants return bit-identical results — proven by the
// matcher-equivalence tests — so the delta is pure kernel speed. The
// single-DTW benchmarks (BM_DtwDistance*) time dtw_distance, which always
// runs the scalar row-major kernel; they keep the simd=0 name the CI gate
// and the baselines key on. BM_DtwLanes is the scalar-vs-AVX2 A/B of the
// DTW kernel.
//
// Extra CLI sugar on top of google-benchmark's own flags:
//   --json[=PATH]   emit the JSON report to PATH (default BENCH_dtw.json)
//                   — shorthand for --benchmark_out=PATH
//                   --benchmark_out_format=json, used by CI to publish
//                   BENCH_dtw.json next to BENCH_fleet.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "channel/csi_synth.h"
#include "core/sanitizer.h"
#include "core/stability.h"
#include "dsp/dtw.h"
#include "dsp/series_match.h"
#include "dsp/simd.h"
#include "util/rng.h"
#include "wifi/noise.h"

namespace {

using namespace vihot;

std::vector<double> noisy_sine(std::size_t n, double period,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(std::sin(2.0 * 3.14159265 * static_cast<double>(i) / period)
                 + rng.normal(0.0, 0.01));
  }
  return xs;
}

// simd=0 -> scalar table, simd=1 -> AVX2 table (nullptr off-x86 / no-AVX2).
const dsp::simd::KernelTable* table_for(std::int64_t simd_arg) {
  return simd_arg == 0 ? &dsp::simd::scalar_kernels()
                       : dsp::simd::avx2_kernels();
}

std::string level_label(const dsp::simd::KernelTable& table) {
  return std::string(dsp::simd::to_string(table.level));
}

void BM_DtwDistance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = noisy_sine(n, 20.0, 1);
  const auto b = noisy_sine(2 * n, 40.0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::dtw_distance(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("scalar");
}
BENCHMARK(BM_DtwDistance)
    ->ArgNames({"n", "simd"})
    ->ArgsProduct({{10, 21, 42, 84}, {0}});

// The matcher's batched entry, the only dispatched DTW kernel:
// BM_DtwDistance's inputs (query n = 21, full band, no abandon bar) in
// every lane of one dtw_banded_batch call, with segment length m. simd=0
// vs simd=1 is the scalar-vs-AVX2 A/B of the DTW kernel. Items are
// single DTWs, so items/s next to BM_DtwDistance/n:21 (m = 42) is the
// per-DTW ratio of the lane kernel over the scalar one.
void BM_DtwLanes(benchmark::State& state) {
  const auto* table = table_for(state.range(1));
  if (table == nullptr) {
    state.SkipWithError("AVX2 kernels unavailable on this host/build");
    return;
  }
  constexpr std::size_t kLanes = dsp::simd::kDtwBatchLanes;
  constexpr std::size_t n = 21;
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto a = noisy_sine(n, 20.0, 1);
  const auto b = noisy_sine(m, 40.0, 2);
  const double* segs[kLanes];
  std::fill(std::begin(segs), std::end(segs), b.data());
  dsp::DtwBatchBuffers buffers;
  buffers.reset(n, m);
  dsp::dtw_band_geometry(n, m, dsp::dtw_band_cells(dsp::DtwOptions{}, n, m),
                         buffers.j_lo(), buffers.j_hi());
  double out[kLanes];
  for (auto _ : state) {
    table->dtw_banded_batch(a.data(), n, segs, kLanes, m, buffers.j_lo(),
                            buffers.j_hi(),
                            std::numeric_limits<double>::infinity(),
                            buffers.scratch(), out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLanes));
  state.SetLabel(std::to_string(kLanes) + " DTWs per call; " +
                 level_label(*table));
}
BENCHMARK(BM_DtwLanes)
    ->ArgNames({"m", "simd"})
    ->ArgsProduct({{10, 21, 42}, {0, 1}});

void BM_DtwDistanceBanded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = noisy_sine(n, 20.0, 1);
  const auto b = noisy_sine(2 * n, 40.0, 2);
  dsp::DtwOptions opt;
  opt.band_fraction = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::dtw_distance(a, b, opt));
  }
  state.SetLabel("scalar");
}
BENCHMARK(BM_DtwDistanceBanded)
    ->ArgNames({"n", "simd"})
    ->ArgsProduct({{21, 42, 84}, {0}});

// Narrow band at growing length: the row-clearing regression row. With a
// 5% band the per-row DP work is O(band), so cost must scale ~linearly
// in n. The historical full-row std::fill made it O(n * m) regardless of
// the band — this benchmark is the A/B witness for the span-clearing
// fix (see EXPERIMENTS.md).
void BM_DtwDistanceBandedNarrow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Square problem: with m = 2n the band would be widened to the |n - m|
  // slope gap and stop being narrow, defeating the point of this row.
  const auto a = noisy_sine(n, 20.0, 1);
  const auto b = noisy_sine(n, 40.0, 2);
  dsp::DtwOptions opt;
  opt.band_fraction = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::dtw_distance(a, b, opt));
  }
  state.SetLabel("band 5%; scalar");
}
BENCHMARK(BM_DtwDistanceBandedNarrow)
    ->ArgNames({"n", "simd"})
    ->ArgsProduct({{84, 256, 1024}, {0}});

// The full Algorithm-1 inner loop: one orientation estimate against a
// 10 s / 200 Hz profile — the per-estimate cost of the live tracker.
// Two A/B variants pin the fast-path speedup down (both return
// bit-identical matches, proven by the matcher-equivalence tests):
//   * Naive     — find_best_match_reference: no pruning, no workspace,
//                 per-candidate allocations, scalar DTW;
//   * (default) — workspace + lower-bound cascade + early abandoning,
//                 measured under both kernel tables (simd arg).
dsp::SeriesMatchOptions series_match_options() {
  dsp::SeriesMatchOptions opt;
  opt.start_stride = 2;
  opt.dtw.band_fraction = 0.25;
  return opt;
}

// The tracker's live case: the query is the recent window, which DOES
// match the profile somewhere (plus measurement noise). A good best
// match is what arms the pruning bar — matching an unrelated series
// would leave every candidate inside the retention slack.
std::vector<double> profile_slice_query(const std::vector<double>& profile,
                                        std::size_t start, std::size_t n) {
  util::Rng rng(9);
  std::vector<double> q(profile.begin() + static_cast<std::ptrdiff_t>(start),
                        profile.begin() +
                            static_cast<std::ptrdiff_t>(start + n));
  for (double& v : q) v += rng.normal(0.0, 0.02);
  return q;
}

void BM_SeriesMatch(benchmark::State& state) {
  const auto* table = table_for(state.range(0));
  if (table == nullptr) {
    state.SkipWithError("AVX2 kernels unavailable on this host/build");
    return;
  }
  const dsp::simd::ForcedKernels forced(*table);
  const auto profile = noisy_sine(2000, 30.0, 4);
  const auto query = profile_slice_query(profile, 700, 21);
  const dsp::SeriesMatchOptions opt = series_match_options();
  dsp::SeriesMatch last;
  for (auto _ : state) {
    last = dsp::find_best_match(query, profile, opt);
    benchmark::DoNotOptimize(last);
  }
  const auto& s = last.scan;
  const double pruned =
      static_cast<double>(s.lb_endpoint_pruned + s.lb_band_pruned +
                          s.dtw_abandoned);
  const double rate =
      s.candidates > 0 ? pruned / static_cast<double>(s.candidates) : 0.0;
  state.SetLabel("fast path (" + level_label(*table) + "); prune rate " +
                 std::to_string(100.0 * rate) + "% of " +
                 std::to_string(s.candidates) + " candidates");
}
BENCHMARK(BM_SeriesMatch)->ArgNames({"simd"})->Arg(0)->Arg(1);

void BM_SeriesMatchNaive(benchmark::State& state) {
  const auto profile = noisy_sine(2000, 30.0, 4);
  const auto query = profile_slice_query(profile, 700, 21);
  const dsp::SeriesMatchOptions opt = series_match_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dsp::find_best_match_reference(query, profile, opt));
  }
  state.SetLabel("reference scan (no pruning, no workspace)");
}
BENCHMARK(BM_SeriesMatchNaive);

void BM_ChannelSynthesis(benchmark::State& state) {
  const channel::CabinScene scene = channel::make_cabin_scene();
  const channel::ChannelModel model(scene, channel::SubcarrierGrid{},
                                    channel::HeadScatterModel{});
  channel::CabinState st;
  st.head.position = scene.driver_head_center;
  double theta = 0.0;
  for (auto _ : state) {
    st.head.theta = theta;
    theta += 0.01;
    if (theta > 1.5) theta = -1.5;
    benchmark::DoNotOptimize(model.csi(st));
  }
  state.SetLabel("one CSI frame (2 ant x 30 subcarriers)");
}
BENCHMARK(BM_ChannelSynthesis);

void BM_Sanitizer(benchmark::State& state) {
  const auto* table = table_for(state.range(0));
  if (table == nullptr) {
    state.SkipWithError("AVX2 kernels unavailable on this host/build");
    return;
  }
  const dsp::simd::ForcedKernels forced(*table);
  const channel::CabinScene scene = channel::make_cabin_scene();
  const channel::ChannelModel model(scene, channel::SubcarrierGrid{},
                                    channel::HeadScatterModel{});
  channel::CabinState st;
  st.head.position = scene.driver_head_center;
  wifi::HardwareNoiseModel noise(wifi::NoiseConfig{}, util::Rng(5));
  const wifi::CsiMeasurement m =
      noise.corrupt(0.0, model.csi(st), model.grid());
  const core::CsiSanitizer sanitizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sanitizer.phase(m));
  }
  state.SetLabel("Eq.(3) + subcarrier averaging per frame (" +
                 level_label(*table) + ")");
}
BENCHMARK(BM_Sanitizer)->ArgNames({"simd"})->Arg(0)->Arg(1);

// The per-frame stable-phase check (Sec. 3.4.1) at the live feed rate:
// one update per 2 ms frame against a full 1.2 s (600-sample) window.
// `moving` swings the phase by far more than the spread bar, so no
// verdict passes; `flat` stays inside it, so every update also folds
// the window mean.
void BM_StablePhaseUpdate(benchmark::State& state, bool flat) {
  constexpr std::size_t kTable = 4096;
  constexpr double kDt = 0.002;
  util::Rng rng(6);
  std::vector<double> phases(kTable);
  for (std::size_t i = 0; i < kTable; ++i) {
    const double t = kDt * static_cast<double>(i);
    phases[i] = flat ? 0.3 + rng.uniform(-0.01, 0.01)
                     : 0.5 * std::sin(2.0 * 3.14159265 * t);
  }
  core::StablePhaseDetector det;
  std::size_t i = 0;
  for (; i < kTable; ++i) {
    (void)det.update(kDt * static_cast<double>(i), phases[i % kTable]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        det.update(kDt * static_cast<double>(i), phases[i % kTable]));
    ++i;
  }
  if (det.is_stable() != flat) {
    state.SkipWithError("workload did not hold its intended verdict");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(flat ? "always stable" : "never stable");
}
BENCHMARK_CAPTURE(BM_StablePhaseUpdate, moving, false);
BENCHMARK_CAPTURE(BM_StablePhaseUpdate, flat, true);

}  // namespace

// Custom main so CI can ask for a JSON report with one stable flag
// instead of repeating google-benchmark's two-flag spelling.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      args.emplace_back("--benchmark_out=BENCH_dtw.json");
      args.emplace_back("--benchmark_out_format=json");
    } else if (arg.rfind("--json=", 0) == 0) {
      args.emplace_back("--benchmark_out=" + arg.substr(7));
      args.emplace_back("--benchmark_out_format=json");
    } else {
      args.push_back(arg);
    }
  }
  std::vector<char*> raw;
  raw.reserve(args.size());
  for (std::string& s : args) raw.push_back(s.data());
  int raw_argc = static_cast<int>(raw.size());
  benchmark::Initialize(&raw_argc, raw.data());
  if (benchmark::ReportUnrecognizedArguments(raw_argc, raw.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
