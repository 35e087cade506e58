#!/usr/bin/env sh
# Hostile trace files: `vihot_trace track` must reject each one with an
# error message and exit 1, never die on a signal. Usage:
#   hostile_trace_test.sh <path to vihot_trace>
# Cases: a .csi file with a header and no frames (track used to read the
# last frame of the empty capture), and a .truth header whose seed is
# not a number (an uncaught std::stoull exception aborted the tool).
bin=$1
dir=$(mktemp -d "${TMPDIR:-/tmp}/hostile-trace.XXXXXX") || exit 1
trap 'rm -rf "$dir"' EXIT
status=0

probe() {
  label=$1
  out=$("$bin" track "$dir/t" 2>&1)
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL: vihot_trace track exited $code (want 1) on $label"
    echo "  output was: $out"
    status=1
  fi
  case "$out" in
    *error:*) ;;
    *)
      echo "FAIL: vihot_trace track printed no error on $label"
      echo "  output was: $out"
      status=1
      ;;
  esac
}

printf '# vihot-imu v1\n' > "$dir/t.imu"

printf '# vihot-csi v1 antennas=2 subcarriers=1\n' > "$dir/t.csi"
printf '# vihot-truth v1 seed=7\n0,0.1\n' > "$dir/t.truth"
probe "a header-only .csi file"

printf '# vihot-csi v1 antennas=2 subcarriers=1\n0.5,1,0,1,0\n' \
  > "$dir/t.csi"
printf '# vihot-truth v1 seed=zz\n0,0.1\n' > "$dir/t.truth"
probe "a non-numeric .truth seed"

[ "$status" -eq 0 ] && echo "PASS: vihot_trace track rejects hostile traces"
exit "$status"
