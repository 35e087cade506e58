#!/usr/bin/env python3
"""Self-test of the serving benchmark.

    python3 perfbench/selftest.py

Runs tiny sizes of every workload in BENCHMARK.json, and of `daemon`,
through run.py, both
untraced and traced, and checks that each prints exactly the metrics
BENCHMARK.json names, with their units and finite values, and zero failed
operations. Then runs each workload with a deliberately corrupted
reference result and checks that it is counted as a failed operation.
Exits 1 on any failure.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(spec: dict) -> list:
    problems = []
    # `daemon` runs by hand only (README.md), but stays under test.
    for workload in [w["name"] for w in spec["workloads"]] + ["daemon"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            where = f"{workload} --trace {trace}"
            if set(got) != set(want):
                problems.append(f"{where}: metric names differ: "
                                f"{sorted(set(got) ^ set(want))}")
            for name, metric in got.items():
                if metric["unit"] != want.get(name):
                    problems.append(f"{where}: {name} has unit "
                                    f"{metric['unit']}")
                if not math.isfinite(metric["value"]):
                    problems.append(f"{where}: {name} is not finite")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
        corrupted = run(workload, 0, "--corrupt-reference")
        if corrupted["correct"] or corrupted["failed"] < 1:
            problems.append(f"{workload}: a corrupted reference result was "
                            "not counted as a failed operation")
        print(f"{workload}: ok" if not problems else f"{workload}: FAILED")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check(spec)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
