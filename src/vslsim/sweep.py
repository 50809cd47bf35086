"""Deterministic scenario sweeps over one design variable.

Each swept value yields one summary row holding the metric report plus the
analytic zone-bound quantities for that scenario. Rows keep the input order;
failures are recorded in place without aborting the sweep. Runs are
independent, so a worker pool may execute them concurrently; collation stays
ordered either way.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

from .bounds import ZoneBoundReport, zone_bound_report
from .metrics import MetricsReport, evaluate_trace
from .simulate import DemandProfile
from .scenario import (
    NUMBERS,
    PRESETS,
    SCENARIO_SCHEMA,
    Field,
    Scenario,
    ScenarioValidationError,
    Section,
    decode_or_raise,
    read_json,
    simulate_scenario,
    write_trace,
)


def _set_lc_residual_drop(base: Scenario, value: float) -> Scenario:
    if base.lc is None:
        raise ScenarioValidationError(
            ["lane_change: sweep over residual_drop needs lane change config"]
        )
    return replace(base, lc=replace(base.lc, residual_drop=value))


# Swept variable -> (tag in the run name, setter on the base scenario).
_SWEEPS = {
    "upstream_zone_length": (
        "L0",
        lambda s, v: replace(s, geometry=replace(s.geometry, upstream_zone_length=v)),
    ),
    "demand": ("d", lambda s, v: replace(s, demand=DemandProfile.constant(v))),
    "derating": ("alpha", lambda s, v: replace(s, vsl=replace(s.vsl, derating=v))),
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
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"unknown sweep variable {self.variable!r}; "
                f"expected one of {', '.join(SWEEP_VARIABLES)}"
            )
        if not self.values:
            raise ValueError("sweep needs at least one value")


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
        raise ValueError(f"unknown sweep variable {variable!r}")
    return f"{base_name}_{_SWEEPS[variable][0]}_{value:g}"


def apply_sweep_value(base: Scenario, variable: str, value: float) -> Scenario:
    """Base scenario with one design variable replaced."""
    name = _run_name(base.name, variable, value)
    return replace(_SWEEPS[variable][1](base, float(value)), name=name)


@dataclass
class SweepRow:
    """Outcome of one swept value: metrics plus the analytic bound record."""

    variable: str
    value: float
    name: str
    status: str  # "ok" or "failed"
    error: str | None = None
    error_type: str | None = None
    metrics: MetricsReport | None = None
    bound: ZoneBoundReport | None = None


def _run_one(args: tuple[Scenario, str, float, Path | None]) -> SweepRow:
    """One swept value; writes its trace CSV into ``trace_dir`` when given."""
    base, variable, value, trace_dir = args
    try:
        scenario = apply_sweep_value(base, variable, value)
        bound = zone_bound_report(
            scenario.bound_inputs(), scenario.geometry.upstream_zone_length
        )
        trace = simulate_scenario(scenario)
        if trace_dir is not None:
            write_trace(scenario, trace, trace_dir)
        report = evaluate_trace(scenario, trace)
        return SweepRow(
            variable=variable,
            value=value,
            name=scenario.name,
            status="ok",
            metrics=report,
            bound=bound,
        )
    except Exception as exc:  # noqa: BLE001 - a failed run must not kill the sweep
        return SweepRow(
            variable=variable,
            value=value,
            name=_run_name(base.name, variable, value),
            status="failed",
            error=str(exc),
            error_type=type(exc).__name__,
        )


def run_sweep(
    spec: SweepSpec, max_workers: int = 1, trace_dir: Path | None = None
) -> list[SweepRow]:
    """Evaluate every swept value; row order always matches the value order.

    The pool never exceeds the number of values or of CPUs. With
    ``trace_dir`` each run writes its trace CSV there.
    """
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    jobs = [(spec.base, spec.variable, v, trace_dir) for v in spec.values]
    workers = min(max_workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_one, jobs))
    return [_run_one(job) for job in jobs]


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
    "verdict": _from_bound(lambda b: b.verdict),
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
