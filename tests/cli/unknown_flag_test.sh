#!/usr/bin/env sh
# CLI contract check: every binary passed as an argument must reject an
# unknown option — and an unknown backend name, a retired flag or a
# malformed number — by printing usage text and exiting 2. Guards against
# the regression where a typo'd flag was silently ignored and the run
# proceeded with defaults.
status=0
probe() {
  bin=$1; label=$2; shift 2
  name=$(basename "$bin")
  out=$("$bin" "$@" 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $name exited $code (want 2) on $label"
    status=1
  fi
  case "$out" in
    *usage:*) ;;
    *)
      echo "FAIL: $name printed no usage text on $label"
      echo "  output was: $out"
      status=1
      ;;
  esac
}
for bin in "$@"; do
  probe "$bin" "an unknown flag" --definitely-not-a-flag
  # Tools that grew backend selection must reject bogus backend names
  # the same way; for the others --sanitizer-backend is itself an
  # unknown flag, so the contract holds either way.
  probe "$bin" "a bogus sanitizer backend" --sanitizer-backend bogus
  probe "$bin" "a bogus tracker backend" --tracker-backend bogus
  # Sharding is gone (one engine serves every session): --shards is an
  # unknown flag everywhere, and a non-numeric --threads is rejected.
  probe "$bin" "the retired --shards flag" --shards 2
  probe "$bin" "a non-numeric thread count" --threads abc
  case "$(basename "$bin")" in
    vihot_replay*)
      # The top-level --threads probe lands in the mode slot; these
      # reach the flag parser (strtoull read "abc" as 0).
      probe "$bin" "a non-numeric --threads" \
        verify /nonexistent.vrlog --threads abc
      probe "$bin" "a non-numeric --at-offset" \
        replay /nonexistent.vrlog --at-offset abc
      # import requires --profile with a value.
      probe "$bin" "an import --profile with no value" \
        import /nonexistent/capture /nonexistent.vrlog --profile
      ;;
    vihot_loadgen*)
      # With --socket and --log present, only the number can fail the
      # parse (strtoull read "-1" as 2^64-1 replica threads).
      probe "$bin" "a negative replica count" soak \
        --socket "${TMPDIR:-/tmp}/cli-probe-never-bound.sock" \
        --log /nonexistent.vrlog --replicas -1
      ;;
    vihotd*)
      # strtoull read "-1" as 2^64-1, and the ring round-up then hung.
      probe "$bin" "a negative ingest capacity" \
        --socket "${TMPDIR:-/tmp}/cli-probe-never-bound.sock" \
        --ingest-capacity -1
      ;;
    vihot_sim*)
      # Scenario-pack contract: a pack is a sealed workload definition,
      # so combining --scenario with an ad-hoc cabin flag is a
      # contradiction, and an unknown pack name is an error — both exit
      # 2 with usage text rather than silently preferring one source.
      probe "$bin" "--scenario plus an ad-hoc flag" \
        --scenario driver_only_baseline --passenger
      probe "$bin" "an unknown scenario pack" --scenario not_a_real_pack
      # atof + a cast to size_t made "-1" undefined behaviour.
      probe "$bin" "a negative session count" --sessions -1
      list=$("$bin" --list-scenarios 2>&1)
      code=$?
      if [ "$code" -ne 0 ]; then
        echo "FAIL: vihot_sim --list-scenarios exited $code (want 0)"
        status=1
      fi
      npacks=$(echo "$list" | grep -c "seed")
      if [ "$npacks" -lt 6 ]; then
        echo "FAIL: --list-scenarios shows $npacks packs (want >= 6)"
        status=1
      fi
      ;;
  esac
done
[ "$status" -eq 0 ] && echo "PASS: all tools reject unknown flags, backends and bad numbers"
exit "$status"
