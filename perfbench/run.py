"""vslsim benchmark: one workload, one worker process, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory. The seed perturbs the workload's demand (see
inputs.py). Set-up time is measured from outside: the wall time from starting
a process until it has imported ``vslsim.cli``, loaded and validated the
inputs and checked the paper values, over several processes. The worker then
times full CLI operations (see worker.py). Gated times are reported at the
reference machine speed (speed.py): each interval's wall time is scaled by
the machine-speed probe timed just before and just after it, so that load
from other tenants of a shared host cancels. With ``--trace 1`` the worker
alternates untraced and traced operations and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``record: {...}``) carries sample counts, tail percentiles, failures and the
machine. Scratch files go to ``.perfbench_work/`` in the checkout. Exits 2
without a result when the checkout has no program source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from inputs import FULL_HORIZON_MIN, WORKLOADS, write_inputs
from speed import REFERENCE_S, at_reference, probe, warm_up
from tracing import metric_unit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"

# Processes that only set up; the worker's own set-up is one more sample.
SETUP_SAMPLES = 9
# Every run must end within this many seconds of starting.
RUN_DEADLINE_S = 170.0

# Gated end-to-end metrics; both times are at the reference machine speed.
END_TO_END = ("setup_s", "op_s_p50", "peak_rss_mb")


def hermetic_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("VSLSIM_PARALLEL", None)
    env.pop("VSLSIM_OUTPUT_DIR", None)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONPATH"] = str(SOURCE)
    return env


class WorkerError(RuntimeError):
    pass


def run_worker(job_path: Path, env: dict, setup_only: bool, timeout: float):
    """Start worker.py; return (seconds until its ready line, ready record,
    result record or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(job_path)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            ready_line = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest = proc.stdout.read().splitlines()
        finally:
            timer.cancel()
    if proc.returncode != 0 or not ready_line:
        raise WorkerError(f"worker exited with {proc.returncode}")
    ready = json.loads(ready_line)
    if setup_only:
        return setup_s, ready, None
    if not rest:
        raise WorkerError("worker printed no result")
    return setup_s, ready, json.loads(rest[-1])


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--horizon-min",
        type=float,
        default=FULL_HORIZON_MIN,
        help="shortened simulation horizon for smoke tests (min)",
    )
    args = parser.parse_args()
    if not (SOURCE / "vslsim" / "cli.py").is_file():
        print(f"error: no program source at {SOURCE}/vslsim", file=sys.stderr)
        return 2

    started = perf_counter()
    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        job = write_inputs(args.workload, args.seed, work, args.horizon_min)
        job.update(
            seconds=args.seconds,
            trace=bool(args.trace),
            work_dir=str(work),
            source=str(SOURCE / "vslsim"),
            spans_path=str(scratch / f"spans-{args.workload}.json"),
        )
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job, indent=2), encoding="utf-8")
        env = hermetic_env()
        setups, setups_ref, setup_problems = [], [], []
        warm_up()
        setup_probes = [probe()]
        for _ in range(SETUP_SAMPLES):
            before = setup_probes[-1]
            setup_s, ready, _ = run_worker(job_path, env, True, 60.0)
            after = probe()
            setup_probes.append(after)
            setups.append(setup_s)
            setups_ref.append(at_reference(setup_s, [before, after]))
            setup_problems += ready["setup_problems"]
        remaining = RUN_DEADLINE_S - (perf_counter() - started)
        setup_s, ready, result = run_worker(job_path, env, False, remaining)
        # The worker probes the machine right after its set-up.
        setups.append(setup_s)
        setups_ref.append(at_reference(setup_s, [setup_probes[-1], result["probes_s"][0]]))
        setup_problems += ready["setup_problems"]
    except (WorkerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops, ops_ref = result["op_times"], result["op_times_ref"]
    probes = result["probes_s"]
    correct = not setup_problems and result["failed"] == 0
    # Human-readable summary: every number with its unit and sample count.
    # "at ref" is at the reference machine speed (speed.py).
    summary = [
        ("setup_s", statistics.median(setups_ref), "s", f"at ref, median of {len(setups)} processes"),
        ("op_s_p50", statistics.median(ops_ref), "s", f"at ref, median of {len(ops)} untraced ops"),
        ("op_s_p90", quantile(ops_ref, 0.9), "s", f"at ref, of {len(ops)} untraced ops, not gated"),
        ("setup_wall_s", statistics.median(setups), "s", "wall, not gated"),
        ("op_wall_s_p50", statistics.median(ops), "s", "wall, not gated"),
        (
            "machine_slowdown",
            statistics.median(probes) / REFERENCE_S,
            "1",
            f"median of {len(probes)} probes between ops over the reference",
        ),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "ru_maxrss of the worker"),
        (
            "failed_frac",
            result["failed"] / result["attempted"],
            "1",
            f"{result['failed']} of {result['attempted']} ops",
        ),
    ]
    if args.trace:
        layers = result.get("layers", {})
        accounted = result.get("accounted_frac", [])
        if not layers or any(abs(a - 1.0) > 1e-6 for a in accounted):
            print("error: traced self times do not account for the op", file=sys.stderr)
            correct = False
        metrics = {n: {"value": v, "unit": metric_unit(n)} for n, v in layers.items()}
        summary += [(n, v, metric_unit(n), "median per traced op") for n, v in layers.items()]
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, value, unit, _ in summary
            if name in END_TO_END
        }

    import numpy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "demand_scale": job["demand_scale"],
        "trace": args.trace,
        "summary": {name: {"value": v, "unit": u, "note": note} for name, v, u, note in summary},
        "setup_samples_s": setups,
        "setup_samples_ref_s": setups_ref,
        "op_samples_s": ops,
        "op_samples_ref_s": ops_ref,
        "probe_samples_s": probes,
        "in_op_probes": result["in_op_probes"],
        "setup_probe_samples_s": setup_probes,
        "setup_problems": sorted(set(setup_problems)),
        "failures": result["failures"],
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
    }
    for key in ("traced_op_times", "accounted_frac", "missing_trace_points"):
        if key in result:
            record[key] = result[key]

    width = max(len(name) for name, *_ in summary)
    for name, value, unit, note in summary:
        print(f"{name:<{width}}  {value:>12.6g} {unit:<5}  {note}")
    print("record: " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
