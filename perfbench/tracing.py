"""Per-layer timing of the CLI, taken from outside the program.

The tracer replaces public functions at each module boundary with timing
wrappers -- where the caller looks the name up, since ``cli`` and ``sweep``
hold imported aliases -- and restores the originals afterwards. Calls made
once or a few times per operation become spans (name, start, end, parent);
calls made once per time step (flux, Euler update, controller) are aggregated
into a count and a total time, charged to the enclosing span as child time.

A layer's self time is its span time minus its children's time, so the self
times of one operation add up to its duration. Spans stay in memory and are
written to a file when the traced run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
from time import perf_counter

# layer -> (self-time metric, call-count metric or None)
LAYERS = {
    "cli": ("cli.self_s", None),
    "scenario.load": ("scenario.load_s", "scenario.loads"),
    "simulate.run": ("simulate.run_s", "simulate.runs"),
    "simulate.step": ("simulate.step_s", "simulate.steps"),
    "ctm.interface_flows": ("ctm.interface_flows_s", "ctm.interface_flows_calls"),
    "control": ("control.s", "control.calls"),
    "metrics.evaluate": ("metrics.evaluate_s", None),
    "metrics.reconstruct": ("metrics.reconstruct_s", None),
    "metrics.stops": ("metrics.stops_s", None),
    "metrics.emission": ("metrics.emission_s", None),
    "metrics.rrmse": ("metrics.rrmse_s", None),
    "bounds.report": ("bounds.report_s", "bounds.calls"),
    "simulate.to_csv": ("simulate.to_csv_s", None),
    "sweep.to_csv": ("sweep.to_csv_s", None),
    "cli.json": ("cli.json_s", None),
    "sweep.row": ("sweep.self_s", "sweep.rows"),
}

# Counters filled by the hooks below, reported per operation.
COUNTERS = (
    "metrics.probes",
    "metrics.probe_intervals",
    "simulate.to_csv_bytes",
    "sweep.rows_failed",
    "ctm.cell_steps",
)

# (module, attribute, layer): functions recorded as spans. A name the
# program no longer has is skipped and listed in Tracer.missing.
SPAN_PATCHES = (
    ("vslsim.cli", "load_scenario", "scenario.load"),
    ("vslsim.cli", "load_sweep_spec", "scenario.load"),
    ("vslsim.cli", "simulate_scenario", "simulate.run"),
    ("vslsim.sweep", "simulate_scenario", "simulate.run"),
    ("vslsim.cli", "evaluate_trace", "metrics.evaluate"),
    ("vslsim.sweep", "evaluate_trace", "metrics.evaluate"),
    ("vslsim.metrics", "reconstruct_trajectories", "metrics.reconstruct"),
    ("vslsim.metrics", "avg_stops", "metrics.stops"),
    ("vslsim.metrics", "avg_emission", "metrics.emission"),
    ("vslsim.metrics", "rrmse_density_pooled", "metrics.rrmse"),
    ("vslsim.cli", "zone_bound_report", "bounds.report"),
    ("vslsim.sweep", "zone_bound_report", "bounds.report"),
    ("vslsim.simulate:SimulationTrace", "to_csv", "simulate.to_csv"),
    ("vslsim.cli", "sweep_rows_to_csv", "sweep.to_csv"),
    ("vslsim.sweep", "_run_one", "sweep.row"),
)

# Functions called once per time step: aggregated, not one span each.
AGGREGATE_PATCHES = (
    ("vslsim.simulate", "interface_flows", "ctm.interface_flows"),
    ("vslsim.simulate", "step", "simulate.step"),
)

TIME_METRICS = {time_metric for time_metric, _ in LAYERS.values()}

# Units of the metrics that are neither self times nor counts.
OTHER_UNITS = {
    "simulate.to_csv_bytes": "B",
    "ctm.cell_updates_per_s": "1/s",
    "sweep.row_s_p50": "s",
    "trace.op_s_p50": "s",
    "trace.overhead_s": "s",
}


def metric_unit(name: str) -> str:
    if name in OTHER_UNITS:
        return OTHER_UNITS[name]
    return "s" if name in TIME_METRICS else "count"


# Span record fields.
OP, NAME, START, END, PARENT, CHILD = range(6)


def _after_simulate(counts, result, args) -> None:
    steps, cells = result.densities.shape
    counts["ctm.cell_steps"] += (steps - 1) * cells


def _after_reconstruct(counts, result, args) -> None:
    counts["metrics.probes"] += len(result)
    counts["metrics.probe_intervals"] += sum(
        len(getattr(t, "speeds", ())) for t in result
    )


def _after_to_csv(counts, result, args) -> None:
    counts["simulate.to_csv_bytes"] += os.path.getsize(args[1])


def _after_row(counts, result, args) -> None:
    counts["sweep.rows_failed"] += result.status != "ok"


HOOKS = {
    "simulate.run": _after_simulate,
    "metrics.reconstruct": _after_reconstruct,
    "simulate.to_csv": _after_to_csv,
    "sweep.row": _after_row,
}


class _JsonShim:
    """Stands in for the ``json`` module inside ``vslsim.cli`` so that
    ``json.dumps`` there is timed; every other name goes to the real module."""

    def __init__(self, real, dumps) -> None:
        self._real = real
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._op = -1
        self._aggregates = {layer: [0, 0.0] for _, _, layer in AGGREGATE_PATCHES}
        self._aggregates["control"] = [0, 0.0]
        self._counts = dict.fromkeys(COUNTERS, 0)
        self._row_times: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # Wrappers -------------------------------------------------------------

    def span(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self._counts
        hook = HOOKS.get(layer)
        row_times = self._row_times if layer == "sweep.row" else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [self._op, layer, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD] += t1 - t0
            if hook is not None:
                hook(counts, result, args)
            if row_times is not None:
                row_times.append(t1 - t0)
            return result

        return wrapper

    def aggregate(self, layer: str, fn):
        cell = self._aggregates[layer]
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                cell[0] += 1
                cell[1] += elapsed
                if stack:
                    spans[stack[-1]][CHILD] += elapsed

        return wrapper

    # Installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for path, attr, layer in SPAN_PATCHES:
            owner = _resolve(path)
            if attr in vars(owner):
                self._patch(owner, attr, self.span(layer, getattr(owner, attr)))
            else:
                self.missing.add(f"{path}.{attr}")
        for path, attr, layer in AGGREGATE_PATCHES:
            owner = _resolve(path)
            if attr in vars(owner):
                self._patch(owner, attr, self.aggregate(layer, getattr(owner, attr)))
            else:
                self.missing.add(f"{path}.{attr}")
        scenario = _resolve("vslsim.scenario")
        if "make_controller" in vars(scenario):
            make_controller = scenario.make_controller
            self._patch(
                scenario,
                "make_controller",
                lambda *a, **k: self.aggregate("control", make_controller(*a, **k)),
            )
        else:
            self.missing.add("vslsim.scenario.make_controller")
        cli = _resolve("vslsim.cli")
        self._patch(cli, "json", _JsonShim(json, self.span("cli.json", json.dumps)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # Operations -----------------------------------------------------------

    def run_op(self, fn, *args):
        """Call ``fn`` as one traced operation under the root ``cli`` span."""
        self._op += 1
        for cell in self._aggregates.values():
            cell[0], cell[1] = 0, 0.0
        for key in self._counts:
            self._counts[key] = 0
        self._row_times.clear()
        first = len(self.spans)
        self.install()
        try:
            result = self.span("cli", fn)(*args)
        finally:
            self.uninstall()
        return result, self._summarize(first)

    def _summarize(self, first: int) -> dict:
        """Per-layer self time, call counts and counters of one operation."""
        values = {}
        for time_metric, count_metric in LAYERS.values():
            values[time_metric] = 0.0
            if count_metric:
                values[count_metric] = 0
        negative = 0.0
        for record in self.spans[first:]:
            time_metric, count_metric = LAYERS[record[NAME]]
            own = record[END] - record[START] - record[CHILD]
            negative = min(negative, own)
            values[time_metric] += own
            if count_metric:
                values[count_metric] += 1
        for layer, (calls, total) in self._aggregates.items():
            time_metric, count_metric = LAYERS[layer]
            values[time_metric] += total
            values[count_metric] += calls
        values.update(self._counts)
        root = self.spans[first]
        duration = root[END] - root[START]
        return {
            "op_s": duration,
            "values": values,
            "row_times": list(self._row_times),
            "accounted_frac": sum(values[m] for m in TIME_METRICS) / duration,
            "most_negative_self_s": negative,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["op", "name", "start", "end", "parent", "child_s"],
                    "spans": self.spans,
                    "missing": sorted(self.missing),
                },
                fh,
            )


def layer_metrics(summaries: list[dict], untraced_op_s_p50: float) -> dict[str, float]:
    """Per-layer metrics of a traced run: the median over traced operations
    of each per-operation value."""
    names = list(summaries[0]["values"])
    out = {n: statistics.median(s["values"][n] for s in summaries) for n in names}
    rates = []
    for s in summaries:
        v = s["values"]
        ctm_s = v["ctm.interface_flows_s"] + v["simulate.step_s"]
        if ctm_s > 0.0:
            rates.append(v["ctm.cell_steps"] / ctm_s)
    out["ctm.cell_updates_per_s"] = statistics.median(rates) if rates else 0.0
    del out["ctm.cell_steps"]
    rows = [t for s in summaries for t in s["row_times"]]
    out["sweep.row_s_p50"] = statistics.median(rows) if rows else 0.0
    out["trace.op_s_p50"] = statistics.median(s["op_s"] for s in summaries)
    out["trace.overhead_s"] = out["trace.op_s_p50"] - untraced_op_s_p50
    return out
