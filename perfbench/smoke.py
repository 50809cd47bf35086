"""Fast smoke test of the benchmark harness (under a minute).

    python3 perfbench/smoke.py

Runs every workload untraced and traced on a 20-minute horizon for one
second each, and requires a correct result whose metrics are exactly those
BENCHMARK.json lists, with the same units. Then copies only BENCHMARK.json
and this directory into an empty scratch directory and requires the
benchmark to fail there without printing a result. Exits non-zero on the
first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / BENCH.name / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--horizon-min", "20",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                print(f"FAIL {label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"FAIL {label}: incorrect\n{done.stdout[-3000:]}")
                return 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                print(f"FAIL {label}: metrics and units {units}")
                return 1
            print(f"ok   {label}: {result['attempted']} ops")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        print(f"FAIL without program source: exit {done.returncode}, stdout {done.stdout[-300:]!r}")
        return 1
    print(f"ok   without program source: exit {done.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
