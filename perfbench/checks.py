"""Correctness checks on the files one CLI operation wrote.

Every check returns a list of problems; an empty list means the output is
correct. The checks read only the output files and the job description, so
they hold the program to what it wrote, not to what it computed internally.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Vehicle conservation tolerance, relative to the vehicles that entered; the
# same bound the acceptance suite applies (criterion c08).
BALANCE_TOLERANCE = 1e-6


def file_hashes(out_dir: Path) -> dict[str, str]:
    if not out_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def trace_problems(path: Path, expect: dict) -> list[str]:
    """Row count, density range and vehicle balance of one trace CSV.

    Streams the file so a large trace does not raise the process's peak
    memory. The balance is recomputed from the written densities and the
    entrance and bottleneck flows, independently of the program's own audit.
    """
    n = expect["sections"]
    lengths = [expect["zone_km"]] + [expect["section_km"]] * n
    rows = 0
    lo, hi = math.inf, -math.inf
    stored_first = stored_last = 0.0
    entered = exited = 0.0
    q_in = q_out = 0.0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header.startswith("#"):
            header = fh.readline()
        columns = header.rstrip("\n").split(",")
        try:
            rho_cols = [columns.index(f"rho_{i}") for i in range(n + 1)]
            in_col = columns.index("q_in")
            out_col = columns.index(f"q_{n + 1}")
        except ValueError:
            return [f"{path.name}: unexpected header {header.strip()[:80]!r}"]
        for line in fh:
            cells = line.split(",")
            rho = [float(cells[i]) for i in rho_cols]
            lo = min(lo, min(rho))
            hi = max(hi, max(rho))
            stored = sum(length * r for length, r in zip(lengths, rho))
            if rows == 0:
                stored_first = stored
            else:
                entered += q_in
                exited += q_out
            q_in = float(cells[in_col])
            q_out = float(cells[out_col])
            stored_last = stored
            rows += 1
    problems = []
    if rows != expect["steps"] + 1:
        problems.append(f"{path.name}: {rows} rows, expected {expect['steps'] + 1}")
    if lo < 0.0 or hi > expect["rho_max"]:
        problems.append(
            f"{path.name}: densities span [{lo:.6g}, {hi:.6g}], "
            f"outside [0, {expect['rho_max']:.6g}]"
        )
    entered *= expect["dt_h"]
    exited *= expect["dt_h"]
    residual = (stored_last - stored_first) - (entered - exited)
    if not abs(residual) <= BALANCE_TOLERANCE * max(entered, 1.0):
        problems.append(f"{path.name}: vehicle balance residual {residual:.3g} veh")
    return problems


def metrics_json_problems(path: Path) -> list[str]:
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        metrics = record["metrics"]
        balance = record["vehicle_balance"]
        att = float(metrics["att_min"])
        counted = int(metrics["vehicles_counted"])
        residual = float(balance["residual"])
        entered = float(balance["entered"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable metrics record ({exc!r})"]
    problems = []
    if not math.isfinite(att):
        problems.append(f"{path.name}: att_min is {att}")
    if counted <= 0:
        problems.append(f"{path.name}: vehicles_counted is {counted}")
    if not abs(residual) <= BALANCE_TOLERANCE * max(entered, 1.0):
        problems.append(f"{path.name}: reported balance residual {residual:.3g} veh")
    return problems


def sweep_csv_problems(path: Path, values: list[float], verdicts: dict[str, str]) -> list[str]:
    """Every swept value has an ok row, in order, whose verdict matches the
    closed-form chasing verdict computed outside the sweep."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if len(rows) != len(values):
        return [f"{path.name}: {len(rows)} rows, expected {len(values)}"]
    problems = []
    for row, value in zip(rows, values):
        key = f"{value:g}"
        if row.get("status") != "ok":
            problems.append(f"{path.name}: value {key} status {row.get('status')!r}")
        elif not math.isclose(float(row["value"]), value, abs_tol=1e-12):
            problems.append(f"{path.name}: row for {key} holds value {row['value']}")
        elif row.get("verdict") != verdicts[key]:
            problems.append(
                f"{path.name}: value {key} verdict {row.get('verdict')!r}, "
                f"closed form says {verdicts[key]!r}"
            )
    return problems


def output_problems(
    job: dict, out_dir: Path, verdicts: dict[str, str], seen: dict
) -> tuple[list[str], dict[str, str]]:
    """All content checks of one operation's outputs, and the hash of every
    file it wrote.

    ``seen`` maps a file hash to the problems found in it before, so content
    already checked once (every repeat of a deterministic operation) is not
    parsed again.
    """
    hashes = file_hashes(out_dir)
    name = job["name"]

    def cached(filename: str, check) -> list[str]:
        if filename not in hashes:
            return [f"{filename}: missing"]
        key = hashes[filename]
        if key not in seen:
            seen[key] = check(out_dir / filename)
        return seen[key]

    problems: list[str] = []
    if job["kind"] == "run":
        problems += cached(f"{name}_metrics.json", metrics_json_problems)
        problems += cached(
            f"{name}_trace.csv", lambda p: trace_problems(p, job["expect"])
        )
    else:
        problems += cached(
            f"{name}_upstream_zone_length_sweep.csv",
            lambda p: sweep_csv_problems(p, job["values"], verdicts),
        )
        for value in job["values"]:
            expect = job["expect"][f"{value:g}"]
            problems += cached(
                f"{name}_L0_{value:g}_trace.csv",
                lambda p, e=expect: trace_problems(p, e),
            )
    return problems, hashes
