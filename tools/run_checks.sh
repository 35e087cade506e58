#!/usr/bin/env bash
# Hardening sweep and CI driver.
#
# Legs (in default order): the matcher-equivalence gate proves the
# pruned segment-matcher fast path is bit-identical to the naive
# reference before anything else runs (plus a bench_dtw_micro smoke
# run); the scalar leg re-runs the matcher-equivalence + replay-gate
# labels and the corpus verify with VIHOT_SIMD=off, proving the
# dispatcher's portable scalar kernels reproduce the exact same bits as
# whatever SIMD table the host resolves to; the daemon leg runs the
# daemon ctest label and then tools/daemon_gate.sh (a real vihotd
# driven by vihot_loadgen over the golden corpus, chaos soak, SIGTERM
# drain); the asan and tsan presets
# build and run the full suite under each sanitizer (the tsan leg keeps TrackerEngine / WorkerPool /
# ingest rings honest — engine_tests exercises concurrent producers,
# session churn and batch ticks, and the fleet label re-proves churn
# and profile hot-swaps under the same load); the release preset
# (-DNDEBUG, asserts compiled out) runs the release-guard label. The
# `default` leg is the plain tier-1 pass: default preset build + full
# ctest (backend-matrix and fleet gates first, as named artifacts). The
# opt-in `scenario` leg runs the scenario-pack label alone (envelopes +
# same-seed .vrlog bytes).
#
#   tools/run_checks.sh                  # matcher + asan + tsan + release
#   tools/run_checks.sh default          # plain build + full suite
#   tools/run_checks.sh tsan release     # any subset, in order
#   tools/run_checks.sh --list           # print known legs and exit
#
# Environment:
#   CHECK_JOBS=N          parallel build/test jobs (default: nproc)
#   CHECK_CMAKE_ARGS=...  extra configure args appended to every cmake
#                         --preset call (e.g. ccache:
#                         "-DCMAKE_CXX_COMPILER_LAUNCHER=ccache")
#   CHECK_JUNIT_DIR=DIR   write ctest --output-junit XML per leg here
#
# Every requested leg runs even after an earlier one fails; the
# PASS/FAIL summary trailer reports each, and the exit status is
# non-zero if any leg failed — one CI run yields the complete picture
# plus per-leg junit artifacts.
set -uo pipefail

cd "$(dirname "$0")/.."

all_legs=(matcher scalar replay daemon asan tsan release)
known_legs=(matcher scalar replay scenario daemon default asan tsan release)

if [ "${1:-}" = "--list" ]; then
  printf '%s\n' "${known_legs[@]}"
  exit 0
fi

jobs="${CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}"
junit_dir="${CHECK_JUNIT_DIR:-}"
[ -n "${junit_dir}" ] && mkdir -p "${junit_dir}"

legs=("$@")
if [ ${#legs[@]} -eq 0 ]; then
  legs=("${all_legs[@]}")
fi

# run_ctest <test-preset> <junit-name>
run_ctest() {
  local preset="$1" name="$2"
  if [ -n "${junit_dir}" ]; then
    ctest --preset "${preset}" -j "${jobs}" \
      --output-junit "${junit_dir}/${name}.xml"
  else
    ctest --preset "${preset}" -j "${jobs}"
  fi
}

# configure_build <configure/build-preset>
configure_build() {
  local preset="$1"
  echo "== ${leg}: configure (${preset}) =="
  # shellcheck disable=SC2086  # CHECK_CMAKE_ARGS is intentionally split
  cmake --preset "${preset}" ${CHECK_CMAKE_ARGS:-} || return 1
  echo "== ${leg}: build =="
  cmake --build --preset "${preset}" -j "${jobs}"
}

run_leg() {
  local leg="$1"
  case "${leg}" in
    matcher)
      # Equivalence gate + bench smoke on the default preset (the only
      # one that builds bench_dtw_micro; sanitizer presets set
      # VIHOT_BUILD_BENCH=OFF). The bench run is a smoke test — one
      # short pass over the SeriesMatch A/B trio to catch crashes and
      # print the prune-rate label — not a timing-stable measurement.
      configure_build default || return 1
      echo "== ${leg}: equivalence tests =="
      run_ctest matcher-equivalence matcher-gate || return 1
      echo "== ${leg}: bench smoke =="
      ./build/bench/bench_dtw_micro --benchmark_filter=SeriesMatch
      ;;
    scalar)
      # Forced-scalar dispatch: VIHOT_SIMD=off makes dsp::simd::active()
      # resolve to the portable scalar table no matter what the CPU
      # supports. The matcher-equivalence and replay-gate labels plus
      # the golden-corpus verify must produce byte-identical results —
      # the bit-identity contract of DESIGN.md §5j, checked from the
      # other side (SIMD hosts prove scalar == AVX2; this leg keeps the
      # scalar path itself green so non-x86 builds never drift).
      configure_build default || return 1
      echo "== ${leg}: equivalence tests (VIHOT_SIMD=off) =="
      VIHOT_SIMD=off run_ctest matcher-equivalence scalar-matcher-gate \
        || return 1
      echo "== ${leg}: replay-gate tests (VIHOT_SIMD=off) =="
      VIHOT_SIMD=off run_ctest replay-gate scalar-replay-gate || return 1
      echo "== ${leg}: corpus verify (VIHOT_SIMD=off) =="
      mkdir -p build/replay-reports
      local scalar_rc=0
      local slog sname
      for slog in tests/corpus/*.vrlog; do
        sname="$(basename "${slog}" .vrlog)"
        VIHOT_SIMD=off ./build/tools/vihot_replay verify "${slog}" \
          --report "build/replay-reports/scalar-${sname}.txt" \
          || scalar_rc=1
      done
      return "${scalar_rc}"
      ;;
    default)
      configure_build default || return 1
      echo "== ${leg}: backend-matrix gate =="
      # Pluggable-backend matrix first (named junit artifact): the
      # Kalman/EKF accuracy envelopes are the failure mode a backend
      # change hits before anything else in the suite.
      run_ctest backend-matrix backend-matrix || return 1
      echo "== ${leg}: fleet gate =="
      # Fleet-serving invariants (ingest lanes, profile interning and
      # hot-swap release) as a named artifact before the full pass.
      run_ctest fleet fleet || return 1
      echo "== ${leg}: scenario gate =="
      # Scenario-pack envelopes + same-seed .vrlog bit-identity as a
      # named artifact: a pack regression (accuracy envelope breach or
      # lost determinism) surfaces here before the full pass.
      run_ctest scenario scenario || return 1
      echo "== ${leg}: test =="
      run_ctest default default
      ;;
    replay)
      # Flight-recorder gate: the replay-gate label (format, end-to-end
      # bit-identity, golden corpus), then the corpus drift guard
      # (regenerated logs must byte-match the checked-in ones), then an
      # explicit vihot_replay verify over every corpus log with
      # first-divergence reports written where CI can pick them up as
      # artifacts on failure.
      configure_build default || return 1
      echo "== ${leg}: replay-gate tests =="
      run_ctest replay-gate replay-gate || return 1
      echo "== ${leg}: corpus drift guard =="
      tools/gen_corpus.sh || return 1
      echo "== ${leg}: corpus verify =="
      mkdir -p build/replay-reports
      local verify_rc=0
      local log name
      for log in tests/corpus/*.vrlog; do
        name="$(basename "${log}" .vrlog)"
        ./build/tools/vihot_replay verify "${log}" \
          --report "build/replay-reports/${name}.txt" || verify_rc=1
      done
      return "${verify_rc}"
      ;;
    scenario)
      # Scenario-pack gate on its own (the default leg runs it too):
      # every pack meets its accuracy envelope and records
      # byte-identical .vrlogs for the same seed.
      configure_build default || return 1
      echo "== ${leg}: scenario tests =="
      run_ctest scenario scenario
      ;;
    daemon)
      # Tracking-as-a-service gate: the daemon ctest label (protocol
      # robustness + in-process end-to-end), then tools/daemon_gate.sh
      # boots a REAL vihotd and drives it with vihot_loadgen — corpus
      # bit-identity through the socket, a chaos soak (disconnecting
      # feeders, slow kBlock subscriber), and the SIGTERM drain
      # contract. Logs land in build/daemon-logs for CI artifacts.
      configure_build default || return 1
      echo "== ${leg}: daemon tests =="
      run_ctest daemon daemon || return 1
      echo "== ${leg}: end-to-end gate (vihotd + loadgen) =="
      tools/daemon_gate.sh build
      ;;
    release)
      configure_build release || return 1
      echo "== ${leg}: release-guard tests =="
      # Only the NDEBUG-sensitive guard label; the full suite already
      # runs under both sanitizers.
      run_ctest release-guard release-guard
      ;;
    asan|tsan)
      configure_build "${leg}" || return 1
      echo "== ${leg}: equivalence gate =="
      # Gates first (fast, and the most load-bearing invariants under a
      # sanitizer), then the full suite. The replay gate under tsan is
      # what keeps the Recorder's staging-buffer handoff honest against
      # the engine's concurrent producers.
      run_ctest "matcher-equivalence-${leg}" "${leg}-gate" || return 1
      echo "== ${leg}: replay gate =="
      run_ctest "replay-gate-${leg}" "${leg}-replay-gate" || return 1
      if [ "${leg}" = tsan ]; then
        # The EKF backend mutates per-session filter state from batch
        # workers while producers feed CSI/IMU: its backend-matrix
        # label must be TSan-clean before the full suite runs.
        echo "== ${leg}: backend-matrix gate =="
        run_ctest backend-matrix-tsan tsan-backend-matrix || return 1
        # Session churn and profile hot-swaps race concurrent producers
        # against pooled batch ticks: the fleet label is the serving
        # engine's data-race proof.
        echo "== ${leg}: fleet gate =="
        run_ctest fleet-tsan tsan-fleet || return 1
        # The daemon crosses reader threads, the tick loop and
        # per-subscriber writer threads: its label is the serving
        # layer's data-race proof.
        echo "== ${leg}: daemon gate =="
        run_ctest daemon-tsan tsan-daemon || return 1
        # Scenario packs drive live session churn (create/destroy while
        # producers feed and batch ticks run) through the engine —
        # the multi-occupant analogue of the fleet churn proof.
        echo "== ${leg}: scenario gate =="
        run_ctest scenario-tsan tsan-scenario || return 1
      fi
      echo "== ${leg}: full suite =="
      run_ctest "${leg}" "${leg}"
      ;;
    *)
      echo "unknown leg '${leg}' (known: ${known_legs[*]})" >&2
      return 1
      ;;
  esac
}

declare -A status
failed=0
for leg in "${legs[@]}"; do
  if run_leg "${leg}"; then
    status[${leg}]=PASS
  else
    status[${leg}]=FAIL
    failed=1
  fi
done

echo
echo "== summary =="
for leg in "${legs[@]}"; do
  printf '  %-8s %s\n' "${leg}" "${status[${leg}]}"
done
if [ "${failed}" -ne 0 ]; then
  echo "Some checks FAILED"
  exit 1
fi
echo "All checks passed: ${legs[*]}"
