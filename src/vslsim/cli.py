"""Command line surface: run scenarios, sweep a design variable, print the
zone-bound table, calibrate a fundamental diagram, list presets.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 runtime or
simulation error. The output directory defaults to the working directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bounds import BoundInputError, InfeasibleSpeedError, zone_bound_report
from .calibrate import CalibrationError, FdObservation, fit_fundamental_diagram
from .metrics import evaluate_trace
from .scenario import (
    PRESETS,
    ZONE_SWEEPS,
    ScenarioValidationError,
    load_scenario,
    scenario_fragment,
    simulate_scenario,
    trace_events,
    write_trace,
)
from .sweep import load_sweep_spec, run_sweep, sweep_rows_to_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


# The ``bound`` flag each bound input is read from.
_BOUND_FLAGS = {
    "zone_limit": "--v0",
    "upstream_density": "--upstream-density",
    "densities": "--densities",
    "zone_length": "--zone-length",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; remap to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    """The ``vslsim`` parser, each command's handler its default; built once, at import."""
    parser = _Parser(prog="vslsim", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="simulate one scenario, write trace and metrics")
    p_run.add_argument("scenario", help="scenario JSON path or preset name")
    p_run.add_argument("--out", help="output directory")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec, write the summary CSV")
    p_sweep.add_argument("spec", help="sweep spec JSON path")
    p_sweep.add_argument("--out", help="output directory")
    p_sweep.add_argument(
        "--traces", action="store_true", help="also write the per-run trace CSVs"
    )
    p_sweep.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="parallel runs, at most one per value that builds and per CPU (default 1)",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_bound = sub.add_parser("bound", help="print the zone-length bound table")
    p_bound.add_argument("scenario", help="scenario JSON path or preset name")
    p_bound.add_argument("--v0", type=float, default=None, help="zone command km/h")
    p_bound.add_argument(
        "--zone-length", type=float, default=None, help="candidate zone length km"
    )
    p_bound.add_argument(
        "--densities",
        default=None,
        help="comma separated section densities veh/km at the incident instant",
    )
    p_bound.add_argument(
        "--upstream-density", type=float, default=None, help="entrance density veh/km"
    )
    p_bound.set_defaults(handler=_cmd_bound)

    p_cal = sub.add_parser("calibrate", help="fit a fundamental diagram from a CSV")
    p_cal.add_argument("observations", help="CSV with density,flow,incident columns")
    p_cal.add_argument("--out", help="parameter file to write")
    p_cal.add_argument(
        "--pin-free-flow-speed",
        type=float,
        default=None,
        help="use this free flow speed instead of the fitted slope",
    )
    p_cal.set_defaults(handler=_cmd_calibrate)

    sub.add_parser("presets", help="list bundled scenarios").set_defaults(handler=_cmd_presets)
    return parser


def _out_dir(arg: str | None) -> Path:
    path = Path(arg or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.4g}"


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args.out)
    trace = simulate_scenario(scenario)
    report = evaluate_trace(scenario, trace)
    trace_path = write_trace(scenario, trace, out)
    balance = trace.vehicle_balance()
    record = {
        "scenario": scenario.name,
        "scenario_hash": scenario.content_hash(),
        # JSON has no NaN: an unavailable metric is written as null.
        "metrics": {
            key: value if math.isfinite(value) else None
            for key, value in asdict(report).items()
        },
        "vehicle_balance": balance,
        "events": [[t, label] for t, label in trace_events(scenario, trace)],
    }
    record_path = out / f"{scenario.name}_metrics.json"
    text = json.dumps(record, indent=2, allow_nan=False)
    record_path.write_text(text + "\n", encoding="utf-8")
    print(f"trace:   {trace_path}")
    print(f"metrics: {record_path}")
    print(
        f"ATT {_fmt(report.att_min)} min | stops {_fmt(report.avg_stops)} | "
        f"CO2 {_fmt(report.avg_emission_g_per_km)} g/veh/km | "
        f"density error {_fmt(report.rrmse)} | vehicles {report.vehicles_counted}"
    )
    if report.vehicles_counted == 0:
        print("note: no probe vehicle completed a trip; ATT unavailable")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.spec)
    out = _out_dir(args.out)
    rows = run_sweep(spec, args.workers, trace_dir=out if args.traces else None)
    summary = out / spec.summary_file_name
    sweep_rows_to_csv(rows, summary)
    failed = sum(1 for r in rows if r.status != "ok")
    print(f"summary: {summary} ({len(rows)} rows, {failed} failed)")
    return EXIT_OK


def _cmd_bound(args) -> int:
    scenario = load_scenario(args.scenario)
    densities = None
    if args.densities is not None:
        try:
            densities = np.array([float(x) for x in args.densities.split(",")])
        except ValueError:
            raise BoundInputError(
                "--densities:", f"{args.densities!r} is not a comma separated list of numbers"
            ) from None
    zone_length = args.zone_length
    if zone_length is None:
        zone_length = scenario.geometry.upstream_zone_length
    try:
        inputs = scenario.bound_inputs(
            zone_limit=args.v0,
            upstream_density=args.upstream_density,
            densities=densities,
        )
        report = zone_bound_report(inputs, zone_length)
    except BoundInputError as exc:
        # Report the input under the flag it was read from.
        raise BoundInputError(_BOUND_FLAGS[exc.field] + ":", str(exc)) from exc
    rows = [
        ("zone command v0 (km/h)", _fmt(inputs.zone_limit)),
        ("lower bound on zone length (km)", _fmt(report.lower_bound)),
        ("time to clear congestion (min)", _fmt(report.time_to_clear * 60.0)),
        ("first held vehicle arrival (min)", _fmt(report.arrival_time * 60.0)),
        ("verdict at zone length %s km" % _fmt(report.zone_length), report.label),
        ("command feasible", str(report.feasible).lower()),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    record = {
        "zone_limit": inputs.zone_limit,
        "zone_length": report.zone_length,
        "lower_bound_km": report.lower_bound,
        "lower_bound_raw_km": report.lower_bound_raw,
        "vacuous": report.vacuous,
        "time_to_clear_h": report.time_to_clear,
        "arrival_time_h": report.arrival_time,
        "verdict": report.label,
        "feasible": report.feasible,
    }
    print(json.dumps(record, allow_nan=False))
    return EXIT_OK


def _observed_number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise CalibrationError(f"{where}: {text!r} is not a finite non-negative number")
    return value


def _observed_flag(text: str, where: str) -> bool:
    flag = {"0": False, "1": True, "false": False, "true": True}.get(text.lower())
    if flag is None:
        raise CalibrationError(f"{where}: {text!r} is not 0, 1, true or false")
    return flag


def _read_observations(path: str) -> list[FdObservation]:
    """Rows of a CSV whose header names density, flow and incident columns
    (any order, extra columns ignored, fields may be quoted); blank rows are
    skipped. An incident cell is 0, 1, true or false in any letter case. A
    leading byte-order mark is dropped. A file that cannot be read, a header
    naming one of the three columns twice or a bad row is a CalibrationError
    naming the file, and the column or the row's line and column."""
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise CalibrationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CalibrationError(f"{path} is not valid UTF-8: {exc}") from exc
    obs: list[FdObservation] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = [name.strip().lower() for name in next(reader, [])]
    if twice := [n for n in ("density", "flow", "incident") if header.count(n) > 1]:
        raise CalibrationError(f"{path}: the header names the {twice[0]} column twice")
    try:
        columns = {n: header.index(n) for n in ("density", "flow", "incident")}
    except ValueError as exc:
        raise CalibrationError(
            "observation CSV needs density,flow,incident columns"
        ) from exc
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        cells = {}
        for name, i in columns.items():
            where = f"{path}: line {reader.line_num}, column {name}"
            if i >= len(row):
                raise CalibrationError(f"{where}: missing value")
            read = _observed_flag if name == "incident" else _observed_number
            cells[name] = read(row[i].strip(), where)
        obs.append(FdObservation(**cells))
    return obs


def _cmd_calibrate(args) -> int:
    obs = _read_observations(args.observations)
    fd, diag = fit_fundamental_diagram(
        obs, pinned_free_flow_speed=args.pin_free_flow_speed
    )
    text = json.dumps(scenario_fragment(fd=fd), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"parameters: {args.out}")
    else:
        print(text, end="")
    pinned = diag.pinned_free_flow_speed
    pinned_note = "" if pinned is None else f" (pinned to {pinned:.4g})"
    print(f"fitted v_f {diag.fitted_free_flow_speed:.4g} km/h{pinned_note}")
    print(
        f"branches: {diag.n_free} free / {diag.n_congested} congested, "
        f"incident {diag.n_incident_free} free / {diag.n_incident_congested} congested"
    )
    for note in diag.notes:
        print(f"note: {note}")
    return EXIT_OK


def _cmd_presets(args) -> int:
    for name, factory in PRESETS.items():
        s = factory()
        sweep = ", ".join(f"{v:g}" for v in ZONE_SWEEPS[name])
        print(
            f"{name}: demand {s.demand.at(0.0):g} veh/h, zone {s.geometry.upstream_zone_length:g} km, "
            f"{s.geometry.num_sections} sections x {s.geometry.section_length:g} km"
        )
        print(f"  zone-length study values (km): {sweep}")
    return EXIT_OK


_PARSER = _build_parser()


def cli_dispatch(argv: list[str] | None = None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``); returns its exit code."""
    try:
        args = _PARSER.parse_args(argv)
        if args.command is None:
            _PARSER.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        BoundInputError,
        ScenarioValidationError,
        CalibrationError,
        InfeasibleSpeedError,
    ) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError, MemoryError) as exc:  # ControllerError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
