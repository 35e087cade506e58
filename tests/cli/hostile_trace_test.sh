#!/usr/bin/env sh
# Hostile captures: `vihot_replay import` must reject each one with an
# error message and exit 1, never die on a signal. Usage:
#   hostile_trace_test.sh <path to vihot_replay> <tests/corpus dir>
# Cases: a .csi file with a header and no frames, a .csi declaring zero
# subcarriers (each frame would sanitize to phase 0 and be tracked as
# data), a malformed row, frames out of time order, a missing .imu, and
# a --profile log holding zero or two profiles (which calibration to
# use would be a guess). No case may leave an output log behind.
bin=$1
corpus=$2
dir=$(mktemp -d "${TMPDIR:-/tmp}/hostile-trace.XXXXXX") || exit 1
trap 'rm -rf "$dir"' EXIT
status=0

# One calibration profile, and a log holding two.
good_profile="$corpus/baseline.vrlog"
two_profiles="$corpus/pack_churn.vrlog"
# Zero profiles: the 12-byte preamble plus the header chunk alone
# (12 bytes of framing around the payload whose length sits at byte 16).
hlen=$(od -An -tu4 -j16 -N4 "$good_profile" | tr -d ' ')
head -c $((12 + 12 + hlen)) "$good_profile" > "$dir/zero.vrlog"

probe() {
  label=$1
  profile=$2
  out=$("$bin" import "$dir/t" "$dir/out.vrlog" --profile "$profile" 2>&1)
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL: vihot_replay import exited $code (want 1) on $label"
    echo "  output was: $out"
    status=1
  fi
  case "$out" in
    *error:*) ;;
    *)
      echo "FAIL: vihot_replay import printed no error on $label"
      echo "  output was: $out"
      status=1
      ;;
  esac
  if [ -e "$dir/out.vrlog" ]; then
    echo "FAIL: vihot_replay import left an output log on $label"
    rm -f "$dir/out.vrlog"
    status=1
  fi
}

# A well-formed two-frame capture, so each case breaks one thing.
good_csi() {
  printf '# vihot-csi v1 antennas=2 subcarriers=1\n0.5,1,0,1,0\n2.0,1,0,0,1\n' \
    > "$dir/t.csi"
}
printf '# vihot-imu v1\n0.5,0.01,0.02\n' > "$dir/t.imu"

printf '# vihot-csi v1 antennas=2 subcarriers=1\n' > "$dir/t.csi"
probe "a header-only .csi file" "$good_profile"

printf '# vihot-csi v1 antennas=2 subcarriers=0\n0.5\n2.0\n' > "$dir/t.csi"
probe "a .csi with zero subcarriers" "$good_profile"

printf '# vihot-csi v1 antennas=2 subcarriers=1\n0.5,1,0,1,0\n1.23,0.5\n' \
  > "$dir/t.csi"
probe "a malformed .csi row" "$good_profile"

# The engine rejects frame 2 (older than frame 1) at the first tick.
printf '# vihot-csi v1 antennas=2 subcarriers=1\n1.0,1,0,1,0\n0.5,1,0,1,0\n3.0,1,0,1,0\n' \
  > "$dir/t.csi"
probe "out-of-order .csi frames" "$good_profile"

good_csi
mv "$dir/t.imu" "$dir/t.imu.away"
probe "a missing .imu file" "$good_profile"
mv "$dir/t.imu.away" "$dir/t.imu"

probe "a --profile log with zero profiles" "$dir/zero.vrlog"
probe "a --profile log with two profiles" "$two_profiles"

# The same capture with the one-profile log imports cleanly.
if ! "$bin" import "$dir/t" "$dir/out.vrlog" --profile "$good_profile" \
    > /dev/null 2>&1; then
  echo "FAIL: vihot_replay import rejected the well-formed capture"
  status=1
fi

[ "$status" -eq 0 ] && echo "PASS: vihot_replay import rejects hostile captures"
exit "$status"
