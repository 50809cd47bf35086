"""One workload in one process: set up, then repeat one CLI operation.

    python3 perfbench/worker.py JOB_JSON [--setup-only]

Set-up imports ``vslsim.cli``, loads and validates the workload's input
file and checks the paper's closed-form values on the bundled presets; the
worker then prints one JSON line (the ready line). Without ``--setup-only`` it
goes on to call ``vslsim.cli.cli_dispatch`` in a closed loop with one client,
each call writing into a fresh output directory, until the job's seconds are
spent and at least two operations ran. Every operation's outputs are checked.
The machine-speed probe (speed.py) runs before the first operation, right
after each one, and every half second during each untraced one, so every
untraced operation is also reported at the reference speed. In a traced job every second operation runs under the
tracer. The last line
of standard output is the JSON result. The parent process (run.py) starts
this script with a hermetic environment.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

# Paper values on the unperturbed high-demand preset: (label, expected, tolerance).
PAPER_VALUES = (
    ("zone-length bound at v0 = 20 km/h (km)", 1.8, 0.1),
    ("clearing time at a 4.8 km zone (min)", 14.0, 0.2),
    ("congested zone command (km/h)", 25.7, 0.1),
    ("cleared zone command (km/h)", 31.6, 0.1),
)


def paper_problems() -> list[str]:
    from vslsim.bounds import l0_lower_bound, time_to_clear
    from vslsim.control import rule_commands
    from vslsim.scenario import PRESETS

    high = PRESETS["high_demand"]()
    inputs = high.bound_inputs(zone_limit=20.0)
    measured = (
        l0_lower_bound(inputs),
        time_to_clear(inputs, 4.8) * 60.0,
        *rule_commands(high.fd),
    )
    return [
        f"paper value {label}: {value:.4g}, expected {expected} +- {tol}"
        for (label, expected, tol), value in zip(PAPER_VALUES, measured)
        if not abs(value - expected) <= tol
    ]


def load_inputs(job: dict):
    """Load and validate the workload's input file the way the CLI does."""
    if job["kind"] == "run":
        from vslsim.scenario import load_scenario

        return load_scenario(job["input"])
    from vslsim.sweep import load_sweep_spec

    return load_sweep_spec(job["input"])


def expected_verdicts(job: dict, loaded) -> dict[str, str]:
    """Closed-form chasing verdict for every swept zone length."""
    if job["kind"] != "sweep":
        return {}
    from vslsim.bounds import chasing_verdict

    inputs = loaded.base.bound_inputs()
    return {f"{v:g}": chasing_verdict(inputs, v).label for v in job["values"]}


def run_ops(job: dict, cli_dispatch, verdicts: dict[str, str]) -> dict:
    # Imported after the ready line so that set-up time is the program's alone.
    from checks import output_problems
    from speed import Sampler, at_reference, probe, warm_up
    from tracing import Tracer, layer_metrics

    work = Path(job["work_dir"])
    tracer = Tracer() if job["trace"] else None
    op_times: list[float] = []
    ref_times: list[float] = []
    sampler = Sampler()
    in_op_probes = 0
    warm_up()
    probes = [probe()]
    summaries: list[dict] = []
    failures: list[dict] = []
    seen: dict = {}
    reference = None
    start = perf_counter()
    for i in itertools.count():
        out = work / f"op{i}"
        argv = job["argv"] + ["--out", str(out)]
        traced = tracer is not None and i % 2 == 1
        gc.collect()
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            t0 = perf_counter()
            try:
                if traced:
                    code, summary = tracer.run_op(cli_dispatch, argv)
                else:
                    with sampler:
                        code = cli_dispatch(argv)
            except Exception as exc:  # noqa: BLE001 - a crashed op is a failed op
                code = f"exception {exc!r}"
            elapsed = perf_counter() - t0
        probes.append(probe())
        problems = [] if code == 0 else [f"exit {code}: {err.getvalue().strip()[-300:]}"]
        found, hashes = output_problems(job, out, verdicts, seen)
        problems += found
        shutil.rmtree(out, ignore_errors=True)
        if reference is None:
            reference = hashes
        elif hashes != reference:
            changed = sorted(k for k in reference.keys() | hashes.keys()
                             if reference.get(k) != hashes.get(k))
            kind = "traced outputs differ from untraced" if traced else "outputs differ"
            problems.append(f"{kind} op 0: {', '.join(changed)[:300]}")
        if traced and code == 0:
            summaries.append(summary)
            if summary["most_negative_self_s"] < -1e-9:
                problems.append(f"negative self time {summary['most_negative_self_s']:.3g} s")
        elif not traced:
            own_s = elapsed - sampler.paused_s
            op_times.append(own_s)
            ref_times.append(at_reference(own_s, [probes[-2], *sampler.samples, probes[-1]]))
            in_op_probes += len(sampler.samples)
        if problems:
            failures.append({"op": i, "traced": traced, "problems": problems[:5]})
        # Stop before an operation that would end past the run's seconds,
        # but only after at least two.
        typical = statistics.median(op_times) if op_times else elapsed
        if i >= 1 and perf_counter() - start + typical > job["seconds"]:
            break
    result = {
        "attempted": i + 1,
        "failed": len(failures),
        "failures": failures[:10],
        "op_times": op_times,
        "op_times_ref": ref_times,
        "probes_s": probes,
        "in_op_probes": in_op_probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write(job["spans_path"])
        result["missing_trace_points"] = sorted(tracer.missing)
        if summaries:
            result["layers"] = layer_metrics(summaries, statistics.median(op_times))
            result["accounted_frac"] = [s["accounted_frac"] for s in summaries]
            result["traced_op_times"] = [s["op_s"] for s in summaries]
    return result


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import vslsim
    from vslsim.cli import cli_dispatch

    problems = []
    source = Path(vslsim.__file__).resolve().parent
    if source != Path(job["source"]).resolve():
        problems.append(f"imported vslsim from {source}, not from the checkout")
    try:
        loaded = load_inputs(job)
    except ValueError as exc:
        loaded = None
        problems.append(f"input rejected: {exc}")
    problems += paper_problems()
    print(json.dumps({"setup_problems": problems}), flush=True)
    if "--setup-only" in sys.argv[2:] or loaded is None:
        return 0
    verdicts = expected_verdicts(job, loaded)
    print(json.dumps(run_ops(job, cli_dispatch, verdicts)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
