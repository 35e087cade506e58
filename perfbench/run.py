#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload ramp|drive|daemon --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the ViHOT library, vihotd and the
perfbench driver from source into $CARGO_TARGET_DIR (default
.bench_build), then runs one workload; the driver's last stdout line is
the JSON result. Extra flags (--tiny, --corrupt-reference) pass through;
see perfbench/README.md.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "-j", str(os.cpu_count() or 1)])
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                sys.stderr.write(f"perfbench build failed:\n{tail}\n")
                sys.exit(1)
    return build_dir / "perfbench"


def stop_group(proc: subprocess.Popen) -> None:
    """Stops whatever the run left behind in its process group."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        try:
            proc.wait(timeout=5)
            return
        except subprocess.TimeoutExpired:
            continue


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR")
                     or HERE.parent / ".bench_build").resolve()
    binary = build(build_dir)
    work_dir = os.path.relpath(build_dir / "work")
    cmd = [str(binary), *sys.argv[1:], "--work-dir", work_dir]
    # Own process group: a crashed run cannot leave a vihotd behind.
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdin=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    finally:
        stop_group(proc)


if __name__ == "__main__":
    sys.exit(main())
