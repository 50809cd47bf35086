"""Deterministic scenario sweeps over one design variable.

Each swept value yields one summary row, in input order, holding the metric
report plus the analytic zone-bound quantities for that scenario. A value that
fails to build (a bound whose times overflow is rejected as ``vslsim bound``
rejects it) or to run fails its row alone, without aborting the sweep. No sweep
variable changes the diagram, sections, step, horizon or control period, so a
sweep is one batch, one chunk per worker over the values that build; two or
more workers run in a process pool imported only then, with the same bytes.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .bounds import ZoneBoundReport, zone_bound_report
from .control import Controller
from .metrics import MetricsReport, evaluate_trace
from .simulate import DemandProfile, SimulationTrace, run_batch
from .scenario import (
    MAX_FILE_NAME_BYTES,
    MAX_NAME_BYTES,
    NUMBERS,
    PRESETS,
    SCENARIO_SCHEMA,
    Field,
    Scenario,
    ScenarioValidationError,
    Section,
    decode_or_raise,
    make_controller,
    name_bytes,
    read_json,
    write_trace,
)


def _set_lc_residual_drop(base: Scenario, value: float) -> dict:
    if base.lc is None:
        raise ScenarioValidationError(
            ["lane_change: sweep over residual_drop needs lane change config"]
        )
    return {"lc": replace(base.lc, residual_drop=value)}


# Swept variable -> (tag in the run name, the base fields a value replaces).
_SWEEPS = {
    "upstream_zone_length": (
        "L0",
        lambda s, v: {"geometry": replace(s.geometry, upstream_zone_length=v)},
    ),
    "demand": ("d", lambda s, v: {"demand": DemandProfile.constant(v)}),
    "derating": ("alpha", lambda s, v: {"vsl": replace(s.vsl, derating=v)}),
    "lc_residual_drop": ("epslc", _set_lc_residual_drop),
}

SWEEP_VARIABLES = tuple(_SWEEPS)


@dataclass(frozen=True, kw_only=True)
class SweepSpec:
    """A base scenario, the swept variable, and the values to evaluate."""

    base: Scenario
    variable: str = SWEEP_VARIABLES[0]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("sweep needs at least one value")
        # Run names key the trace files; naming also rejects an unknown variable.
        names = [_run_name(self.base.name, self.variable, v) for v in self.values]
        problems = []
        if (size := name_bytes(self.summary_file_name)) > MAX_FILE_NAME_BYTES:
            problems.append(
                f"scenario.name: the summary file name <name>_{self.variable}_sweep.csv "
                f"has {size} bytes in UTF-8, over {MAX_FILE_NAME_BYTES}"
            )
        for i, (value, name) in enumerate(zip(self.values, names)):
            if (j := names.index(name)) < i:
                problems.append(
                    f"values[{i}]: {value!r} gives the run name {name} of values[{j}]"
                )
            elif (size := name_bytes(name)) > MAX_NAME_BYTES:
                # The row's run is a scenario of that name.
                problems.append(
                    f"values[{i}]: {value!r} gives a run name of {size} bytes in UTF-8, "
                    f"over the {MAX_NAME_BYTES} that keep its output file names within "
                    f"{MAX_FILE_NAME_BYTES} bytes"
                )
        if problems:
            raise ScenarioValidationError(problems)

    @property
    def summary_file_name(self) -> str:
        """File name of the sweep's summary CSV."""
        return f"{self.base.name}_{self.variable}_sweep.csv"


SWEEP_SPEC_SCHEMA = Section(
    SweepSpec,
    (
        Field("preset", "base", PRESETS),
        Field("scenario", "base", SCENARIO_SCHEMA),
        Field("variable", kind=str),
        Field("values", kind=NUMBERS),
    ),
)


def _run_name(base_name: str, variable: str, value: float) -> str:
    """Name of the run for one swept value, e.g. ``high_demand_L0_2.4``."""
    if variable not in _SWEEPS:
        raise ValueError(
            f"unknown sweep variable {variable!r}; expected one of {', '.join(_SWEEPS)}"
        )
    return f"{base_name}_{_SWEEPS[variable][0]}_{value:g}"


def apply_sweep_value(base: Scenario, variable: str, value: float) -> Scenario:
    """Base scenario with one design variable replaced."""
    name = _run_name(base.name, variable, value)
    return replace(base, name=name, **_SWEEPS[variable][1](base, float(value)))


@dataclass
class SweepRow:
    """Outcome of one swept value: metrics plus the analytic bound record."""

    variable: str
    value: float
    name: str
    error: str | None = None
    error_type: str | None = None
    metrics: MetricsReport | None = None
    bound: ZoneBoundReport | None = None

    @property
    def status(self) -> str:
        return "ok" if self.error is None else "failed"


def _failed_row(variable: str, value: float, name: str, exc: Exception) -> SweepRow:
    return SweepRow(variable, value, name, error=str(exc), error_type=type(exc).__name__)


class _Member(NamedTuple):
    """A swept value ready to simulate, with its place in the row order."""

    index: int
    value: float
    scenario: Scenario
    bound: ZoneBoundReport
    controller: Controller


def _run_one(
    variable: str, m: _Member, outcome: SimulationTrace | Exception, trace_dir: Path | None
) -> SweepRow:
    """One swept value's row from its run's outcome; writes its trace CSV
    into ``trace_dir`` when given. A run, trace or metrics error fails it."""
    try:
        if isinstance(outcome, Exception):
            raise outcome
        if trace_dir is not None:
            write_trace(m.scenario, outcome, trace_dir)
        report = evaluate_trace(m.scenario, outcome)
    except Exception as exc:  # noqa: BLE001 - a failed run must not kill the sweep
        return _failed_row(variable, m.value, m.scenario.name, exc)
    return SweepRow(variable, m.value, m.scenario.name, metrics=report, bound=m.bound)


def _run_chunk(job: tuple[str, list[_Member], Path | None]) -> list[SweepRow]:
    """Simulate one chunk of a sweep as one batch; its rows, in order."""
    variable, members, trace_dir = job
    outcomes = run_batch([m.scenario for m in members], [m.controller for m in members])
    return [_run_one(variable, m, o, trace_dir) for m, o in zip(members, outcomes)]


def run_sweep(
    spec: SweepSpec, max_workers: int = 1, trace_dir: Path | None = None
) -> list[SweepRow]:
    """Evaluate every swept value; row order always matches the value order.

    The values that build are simulated as one batch, which gives each row
    the bytes of its own run, split into one contiguous chunk per worker:
    never more workers than values that build or CPUs, a pool for two or more.
    With ``trace_dir`` each run writes its trace CSV there.
    """
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    rows: list[SweepRow | None] = [None] * len(spec.values)
    members: list[_Member] = []
    for i, value in enumerate(spec.values):
        try:
            scenario = apply_sweep_value(spec.base, spec.variable, value)
            bound = zone_bound_report(
                scenario.bound_inputs(), scenario.geometry.upstream_zone_length
            )
            controller = make_controller(scenario)
        except Exception as exc:  # noqa: BLE001 - a failed value must not kill the sweep
            name = _run_name(spec.base.name, spec.variable, value)
            rows[i] = _failed_row(spec.variable, value, name, exc)
            continue
        members.append(_Member(i, value, scenario, bound, controller))
    workers = min(max_workers, len(members), os.cpu_count() or 1)
    cuts = [0] + [j * len(members) // workers for j in range(1, workers + 1)]
    jobs = [(spec.variable, members[a:b], trace_dir) for a, b in zip(cuts, cuts[1:])]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_chunk, jobs))
    else:
        done = [_run_chunk(job) for job in jobs]
    for m, row in zip(members, [row for chunk in done for row in chunk]):
        rows[m.index] = row
    return rows


def _g(x: float) -> str:
    return f"{x:.10g}"


def _metric(name: str) -> Callable[[SweepRow], str]:
    return lambda row: "" if row.metrics is None else _g(getattr(row.metrics, name))


def _from_bound(cell: Callable[[ZoneBoundReport], str]) -> Callable[[SweepRow], str]:
    return lambda row: "" if row.bound is None else cell(row.bound)


# Summary CSV header -> the text of its cell for one row, in column order; the
# metric columns are the fields of MetricsReport. A failed row leaves its
# metric and bound cells empty.
SWEEP_CSV_COLUMNS: dict[str, Callable[[SweepRow], str]] = {
    "variable": lambda row: row.variable,
    "value": lambda row: _g(row.value),
    "name": lambda row: row.name,
    "status": lambda row: row.status,
    "error": lambda row: row.error or "",
    **{f.name: _metric(f.name) for f in fields(MetricsReport)},
    "zone_length_km": _from_bound(lambda b: _g(b.zone_length)),
    "l0_lower_bound_km": _from_bound(lambda b: _g(b.lower_bound)),
    "time_to_clear_min": _from_bound(lambda b: _g(b.time_to_clear * 60.0)),
    "arrival_time_min": _from_bound(lambda b: _g(b.arrival_time * 60.0)),
    "verdict": _from_bound(lambda b: b.label),
    "feasible": _from_bound(lambda b: str(b.feasible).lower()),
    "error_type": lambda row: row.error_type or "",
}


def sweep_rows_to_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Deterministic CSV: same rows in, same bytes out. Names and error
    texts are kept verbatim, quoted where they hold a comma, quote or newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_CSV_COLUMNS)
        writer.writerows(
            [cell(row) for cell in SWEEP_CSV_COLUMNS.values()] for row in rows
        )


def load_sweep_spec(source: str | Path) -> SweepSpec:
    """Read a sweep spec JSON: a base scenario (a ``preset`` name or an
    inline ``scenario``) plus the swept variable and its values."""
    return decode_or_raise(SWEEP_SPEC_SCHEMA, read_json(source))
