"""Scenario definition, JSON schema, and the bundled presets.

Scenario files are plain JSON with fixed units: lengths in km (the lane
change advisory distance in m), speeds in km/h, flows in veh/h, densities in
veh/km, schedule times and the horizon in minutes, the integration step and
the control period in seconds. Internally the schedule times, the demand
step times, the horizon and ``VslRuleConfig.switch_margin`` are in hours,
while ``Scenario.dt``, ``Scenario.control_period`` and
``MetricConfig.seed_interval`` are in seconds.

One field table per JSON object (``SCENARIO_SCHEMA`` and the sections it
nests) names every key, the dataclass attribute it fills and its unit; the
diagram section's keys are ``FundamentalDiagram``'s field names.
Reading, checking and writing all go through that table; a missing key takes
the dataclass default. Unknown keys, non-finite numbers and non-integral
integers are rejected with the dotted path of the offending element.

Like every model type, a ``Scenario`` checks itself when it is built:
``Scenario(...)`` and ``dataclasses.replace`` raise ``ScenarioValidationError``
listing every violation, which the loader reports under dotted paths. Writing
a scenario reports every value its file cannot carry, an hour value ``h``
with ``(h * 60) / 60 != h``, and a scenario writes itself when it is built,
so every scenario that builds is written and read back equal. Values read
from a file pass (checked, not proven, on 15 million random minute values).
"""

from __future__ import annotations

import json
import math
import unicodedata
import warnings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import control
from .bounds import BoundInputs, time_to_clear
from .control import LcConfig, VslRuleConfig
from .ctm import FundamentalDiagram, NetworkGeometry, equilibrium_density
from .metrics import (
    DENSITY_FLOOR,
    RateFn,
    default_emission_rate,
    emission_rate_from_table,
)
from .simulate import (
    DemandProfile,
    IncidentSchedule,
    SimulationTrace,
    cfl_limit,
    run_batch,
)

CONTROLLER_KINDS = tuple(control.CONTROLLERS)

# Relative tolerance for "a whole number of integration steps".
STEP_RTOL = 1e-9


class ScenarioValidationError(ValueError):
    """One or more scenario invariants failed; carries every violation."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = violations
        super().__init__(
            "invalid scenario:\n" + "\n".join(f"  - {v}" for v in violations)
        )


# A name is the stem of its run's output files, the longest of which is
# <name>_metrics.json; ext4, XFS and APFS take file names of at most 255 bytes.
MAX_FILE_NAME_BYTES = 255
MAX_NAME_BYTES = MAX_FILE_NAME_BYTES - len("_metrics.json")


def name_bytes(name: str) -> int:
    """Length of ``name`` in UTF-8 bytes."""
    return len(name.encode("utf-8"))


@dataclass(frozen=True)
class MetricConfig:
    """Metric evaluation settings carried by the scenario."""

    stop_speed: float = 5.0  # km/h
    resume_speed: float = 10.0  # km/h
    seed_interval: float = 10.0  # s between probe vehicles
    density_floor: float = DENSITY_FLOOR  # veh/km treated as an empty cell
    emission_table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.stop_speed < self.resume_speed < math.inf:
            raise ValueError("stop_speed must satisfy 0 <= stop_speed < resume_speed")
        if not 0.0 < self.seed_interval < math.inf:
            raise ValueError("seed_interval must be strictly positive")
        if not 0.0 <= self.density_floor < math.inf:
            raise ValueError("density_floor must be non-negative")
        if self.emission_table is not None:
            self.rate_fn()

    def rate_fn(self) -> RateFn:
        if self.emission_table is None:
            return default_emission_rate
        return emission_rate_from_table(self.emission_table)


def _whole_multiple(value: float, step: float) -> bool:
    """``value`` is a non-negative integer multiple of ``step`` within STEP_RTOL."""
    n = value / step
    return math.isfinite(n) and abs(n - round(n)) <= STEP_RTOL * max(n, 1.0)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Everything one simulation run needs; building one checks every invariant."""

    name: str = "scenario"
    fd: FundamentalDiagram
    geometry: NetworkGeometry
    demand: DemandProfile
    incident: IncidentSchedule | None = None
    controller: str = "rule_based"
    vsl: VslRuleConfig = VslRuleConfig()
    lc: LcConfig | None = None
    horizon: float = 1.5  # h
    dt: float = 1.0  # s
    control_period: float = 30.0  # s
    metrics: MetricConfig = MetricConfig()

    @property
    def dt_hours(self) -> float:
        return self.dt / 3600.0

    @property
    def control_period_hours(self) -> float:
        return self.control_period / 3600.0

    def __post_init__(self) -> None:
        problems: list[str] = []
        if not self.name or any(
            ch in "/\\" or unicodedata.category(ch) in ("Cc", "Cs") for ch in self.name
        ):
            # A lone surrogate has no UTF-8 form for the file name or the trace.
            problems.append(
                f"name: {self.name!r} must be a non-empty file stem without "
                "'/', '\\', control characters or lone surrogates"
            )
        elif (size := name_bytes(self.name)) > MAX_NAME_BYTES:
            problems.append(
                f"name: {size} bytes in UTF-8, over the {MAX_NAME_BYTES} that keep "
                f"<name>_metrics.json within a {MAX_FILE_NAME_BYTES}-byte file name"
            )
        if self.controller not in CONTROLLER_KINDS:
            problems.append(
                f"controller: unknown kind {self.controller!r}, expected one of "
                f"{', '.join(CONTROLLER_KINDS)}"
            )
        if self.controller != "no_control" and self.incident is None:
            problems.append("controller: rule-based control needs an incident schedule")
        horizon_ok = 0.0 <= self.horizon < math.inf
        if not horizon_ok:
            problems.append("horizon: must be finite and non-negative")
        if not 0.0 < self.dt < math.inf:
            problems.append("dt: must be finite and strictly positive")
        else:
            limit = cfl_limit(self.geometry, self.fd) * 3600.0
            if self.dt > limit:
                problems.append(
                    f"dt: {self.dt:.6g} s violates the CFL bound {limit:.6g} s "
                    "for this geometry and fundamental diagram"
                )
            if horizon_ok and not _whole_multiple(self.horizon * 3600.0, self.dt):
                problems.append(
                    f"dt: {self.dt:.6g} s does not divide the horizon "
                    f"{self.horizon * 60.0:.6g} min into whole steps"
                )
            elif horizon_ok and self.incident and not self.incident.active(
                (np.ceil(self.incident.start / self.dt_hours) + (-1, 0, 1)) * self.dt_hours
            ).any():  # the first step at or after the start is one of these three
                problems.append(f"incident: no step of dt = {self.dt:.6g} s lies in the closure")
            if not (
                self.control_period >= self.dt
                and _whole_multiple(self.control_period, self.dt)
            ):
                problems.append(
                    f"control_period: {self.control_period:.6g} s must be a whole "
                    f"multiple of dt = {self.dt:.6g} s"
                )
        if self.incident is not None and self.horizon <= self.incident.end:
            problems.append(
                f"horizon: {self.horizon:.6g} h must exceed the incident end "
                f"{self.incident.end:.6g} h"
            )
        if self.lc is not None and self.lc.residual_drop > self.fd.capacity_drop_factor:
            problems.append(
                "lane_change.residual_drop: must not exceed the capacity drop factor"
            )
        encode(SCENARIO_SCHEMA, self, "", problems)
        if problems:
            raise ScenarioValidationError(problems)

    # Analytic companions -------------------------------------------------

    def phase1_zone_limit(self) -> float:
        """Derated zone command active right after the incident starts (km/h)."""
        congested, _ = control.rule_commands(self.fd)
        return control.derated_command(congested, self.vsl, self.fd)

    def switch_time(self) -> float | None:
        """Scheduled step-up instant of the zone command (h), None without
        an incident.

        The incident start plus the estimated queue-clearing time for a
        corridor in free flow at that instant (``bound_inputs()``), plus the
        configured margin. A switch landing at or beyond the incident end is
        clamped there and reported with a warning raised here, so the default
        filter shows it once however many callers ask.
        """
        if self.incident is None:
            return None
        t_s = self.incident.start + time_to_clear(
            self.bound_inputs(), self.geometry.upstream_zone_length
        )
        t_s += self.vsl.switch_margin
        if t_s >= self.incident.end:
            warnings.warn(
                f"switch time {t_s:.4g} h reaches the incident end "
                f"{self.incident.end:.4g} h; clamping"
            )
            t_s = self.incident.end
        return t_s

    def rho_star(self) -> float:
        """Target equilibrium density for the tracking error (veh/km)."""
        if self.incident is not None:
            return equilibrium_density(self.demand.at(self.incident.start), self.fd)
        return min(self.demand.at(0.0), self.fd.capacity) / self.fd.free_flow_speed

    def metrics_window(self) -> tuple[float, float]:
        """Tracking-error window: command step-up to incident end, or the
        whole horizon without an incident."""
        if self.incident is None:
            return (0.0, self.horizon)
        return (self.switch_time(), self.incident.end)

    def bound_inputs(
        self,
        zone_limit: float | None = None,
        upstream_density: float | None = None,
        densities=None,
    ) -> BoundInputs:
        """Inputs for the zone-length bound; defaults are the phase-1 zone command
        and free flow, ``min(demand, capacity) / v_f`` at the incident instant."""
        t0 = self.incident.start if self.incident is not None else 0.0
        rho = min(self.demand.at(t0), self.fd.capacity) / self.fd.free_flow_speed
        n = self.geometry.num_sections
        return BoundInputs(
            fd=self.fd,
            num_sections=n,
            section_length=self.geometry.section_length,
            zone_limit=self.phase1_zone_limit() if zone_limit is None else zone_limit,
            upstream_density=rho if upstream_density is None else upstream_density,
            densities=np.full(n, rho) if densities is None else densities,
        )

    # Serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return encode(SCENARIO_SCHEMA, self, "", [])

    def content_hash(self) -> str:
        import hashlib  # loads OpenSSL: only the commands that hash pay for it
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


# Schema -------------------------------------------------------------------

NUMBERS = "numbers"  # JSON list of numbers, held as a tuple of floats
PAIRS = "pairs"  # JSON list of [number, number], held as a tuple of pairs


@dataclass(frozen=True)
class Field:
    """One JSON key: the dataclass attribute it fills (the key itself when
    ``attr`` is empty), its kind, and its unit, ``json value = attribute *
    unit``. A kind is ``float``, ``int``, ``str``, ``NUMBERS``, ``PAIRS``, a
    nested ``Section``, or a ``{name: factory}`` table of named values."""

    key: str
    attr: str = ""
    kind: object = float
    unit: float = 1.0

    def __post_init__(self) -> None:
        if not self.attr:
            object.__setattr__(self, "attr", self.key)


@dataclass(frozen=True)
class Section:
    """A JSON object that builds one dataclass from its fields."""

    cls: type
    fields: tuple[Field, ...]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _number(value, path: str, problems: list[str], integral: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{path}: expected a number")
        return None
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        problems.append(f"{path}: must be a finite number")
    elif integral and not float(value).is_integer():
        problems.append(f"{path}: must be an integer")
    else:
        return int(value) if integral else float(value)
    return None


def _decode_value(f: Field, value, path: str, problems: list[str]):
    kind = f.kind
    if isinstance(kind, Section):
        return decode(kind, value, path, problems)
    if isinstance(kind, dict):
        if isinstance(value, str) and value in kind:
            return kind[value]()
        problems.append(
            f"{path}: unknown name {value!r}, expected one of {', '.join(kind)}"
        )
        return None
    if kind is str:
        if isinstance(value, str):
            return value
        problems.append(f"{path}: expected a string")
        return None
    if kind is float or kind is int:
        number = _number(value, path, problems, integral=kind is int)
        return number if number is None or kind is int else number / f.unit
    if not isinstance(value, list):
        problems.append(f"{path}: expected a list")
        return None
    item = _number if kind == NUMBERS else _pair
    items = [item(x, f"{path}[{i}]", problems) for i, x in enumerate(value)]
    if None in items:
        return None
    return tuple(x / f.unit for x in items) if kind == NUMBERS else tuple(items)


def _pair(value, path: str, problems: list[str]):
    if not (isinstance(value, list) and len(value) == 2):
        problems.append(f"{path}: expected a pair of numbers")
        return None
    pair = tuple(_number(x, f"{path}[{j}]", problems) for j, x in enumerate(value))
    return None if None in pair else pair


def decode(section: Section, data, path: str, problems: list[str]):
    """Build ``section.cls`` from a JSON object, appending every violation
    to ``problems`` under its dotted path; None when anything failed.

    JSON null is accepted only where the attribute's default is None; a
    constructor's ScenarioValidationError adds its violations under ``path``.
    """
    where = path or "document"
    if not isinstance(data, dict):
        problems.append(f"{where}: expected an object")
        return None
    before = len(problems)
    known = {f.key for f in section.fields}
    problems += [f"{_join(path, key)}: unknown key" for key in data if key not in known]
    defaults = {f.name: f.default for f in fields(section.cls)}
    kwargs: dict = {}
    given: dict[str, str] = {}
    for f in section.fields:
        if f.key not in data:
            continue
        key_path = _join(path, f.key)
        if f.attr in given:
            problems.append(f"{key_path}: conflicts with {given[f.attr]}")
            continue
        given[f.attr] = key_path
        value = data[f.key]
        if value is None and defaults[f.attr] is None:
            kwargs[f.attr] = None
        else:
            kwargs[f.attr] = _decode_value(f, value, key_path, problems)
    for attr, default in defaults.items():
        if attr not in given and default is MISSING:
            keys = [_join(path, f.key) for f in section.fields if f.attr == attr]
            problems.append(f"{' or '.join(keys)}: missing")
    if len(problems) > before:
        return None
    try:
        return section.cls(**kwargs)
    except ScenarioValidationError as exc:
        problems += [_join(path, v) for v in exc.violations]
    except (ValueError, TypeError) as exc:
        problems.append(f"{where}: {exc}")
    return None


def _to_file(x, unit: float, path: str, problems: list[str]) -> float:
    """``x * unit``, the value the file holds; a finite hour value that it
    does not give back, ``(x * unit) / unit != x``, is a problem."""
    written = float(x) * unit
    if unit != 1.0 and math.isfinite(x) and written / unit != x:
        problems.append(
            f"{path}: {x!r} is written to the file as {written!r}, "
            f"which reads back as {written / unit!r}"
        )
    return written


def _encode_value(f: Field, value, path: str, problems: list[str]):
    if value is None:
        return None
    if isinstance(f.kind, Section):
        return encode(f.kind, value, path, problems)
    if f.kind is float:
        return _to_file(value, f.unit, path, problems)
    if f.kind == NUMBERS:
        return [
            _to_file(x, f.unit, f"{path}[{i}]", problems) for i, x in enumerate(value)
        ]
    if f.kind == PAIRS:
        return [[float(a), float(b)] for a, b in value]
    return value


def encode(section: Section, obj, path: str, problems: list[str]) -> dict:
    """JSON object for a dataclass built by ``section``; inverse of decode.
    Each value the file cannot carry is appended to ``problems``."""
    return {
        f.key: _encode_value(f, getattr(obj, f.attr), _join(path, f.key), problems)
        for f in section.fields
    }


SCENARIO_SCHEMA = Section(
    Scenario,
    (
        Field("name", kind=str),
        # The diagram's file keys are its field names, in their order.
        Field(
            "fundamental_diagram",
            "fd",
            Section(
                FundamentalDiagram,
                tuple(Field(f.name) for f in fields(FundamentalDiagram)),
            ),
        ),
        Field(
            "geometry",
            kind=Section(
                NetworkGeometry,
                (
                    Field("num_sections", kind=int),
                    Field("section_length_km", "section_length"),
                    Field("upstream_zone_length_km", "upstream_zone_length"),
                ),
            ),
        ),
        Field(
            "demand",
            kind=Section(
                DemandProfile,
                (Field("times_min", "times", NUMBERS, 60.0), Field("flows", kind=NUMBERS)),
            ),
        ),
        Field(
            "incident",
            kind=Section(
                IncidentSchedule,
                (
                    Field("start_min", "start", unit=60.0),
                    Field("end_min", "end", unit=60.0),
                    Field("lanes_closed", kind=int),
                ),
            ),
        ),
        Field("controller", kind=str),
        Field(
            "vsl",
            kind=Section(
                VslRuleConfig,
                (
                    Field("derating"),
                    Field("switch_margin_min", "switch_margin", unit=60.0),
                    Field("quantize_step"),
                ),
            ),
        ),
        Field(
            "lane_change",
            "lc",
            Section(
                LcConfig,
                (
                    Field("advisory_distance_per_lane_m", "advisory_distance_per_lane"),
                    Field("residual_drop"),
                ),
            ),
        ),
        Field("horizon_min", "horizon", unit=60.0),
        Field("dt_s", "dt"),
        Field("control_period_s", "control_period"),
        Field(
            "metrics",
            kind=Section(
                MetricConfig,
                (
                    Field("stop_speed"),
                    Field("resume_speed"),
                    Field("seed_interval_s", "seed_interval"),
                    Field("density_floor"),
                    Field("emission_table", kind=PAIRS),
                ),
            ),
        ),
    ),
)


def decode_or_raise(section: Section, data):
    """Decode a whole document or raise one error carrying every violation."""
    problems: list[str] = []
    obj = decode(section, data, "", problems)
    if problems:
        raise ScenarioValidationError(problems)
    return obj


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its JSON document, reporting every violation."""
    return decode_or_raise(SCENARIO_SCHEMA, data)


def scenario_fragment(**attrs) -> dict:
    """Scenario-file blocks for the given Scenario attributes only, e.g.
    ``scenario_fragment(fd=fd)`` for a calibrated fundamental diagram."""
    return {
        f.key: _encode_value(f, attrs[f.attr], f.key, [])
        for f in SCENARIO_SCHEMA.fields
        if f.attr in attrs
    }


def read_json(path: str | Path):
    """The JSON document in the UTF-8 file ``path``, after one leading
    byte-order mark if it has one; a ScenarioValidationError names the file,
    and the key when an object names one twice."""
    path = Path(path)

    def unique_keys(pairs: list) -> dict:
        if len(obj := dict(pairs)) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
            raise ScenarioValidationError([f"file: {path} names the key {key!r} twice"])
        return obj

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioValidationError([f"file: cannot read {path}: {exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioValidationError([f"file: {path} is not valid UTF-8: {exc}"]) from exc
    try:
        return json.loads(text.removeprefix("\ufeff"), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError([f"file: {path} is not valid JSON: {exc}"]) from exc


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a preset name or a JSON file path."""
    name = str(source)
    if name in PRESETS:
        return PRESETS[name]()
    return scenario_from_dict(read_json(source))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write the scenario file, hour-valued fields in minutes. It reloads as
    an equal scenario with the same ``content_hash``: building a scenario
    rejects an hour value that the minutes would not give back."""
    Path(path).write_text(
        json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def write_trace(scenario: Scenario, trace: SimulationTrace, directory: Path) -> Path:
    """Write ``<name>_trace.csv`` with the scenario's provenance comment."""
    path = directory / f"{scenario.name}_trace.csv"
    trace.to_csv(path, comment=f"scenario={scenario.name} hash={scenario.content_hash()}")
    return path


def make_controller(scenario: Scenario) -> control.Controller:
    """Instantiate the controller selected by the scenario."""
    return control.CONTROLLERS[scenario.controller](scenario)


def simulate_scenario(scenario: Scenario, controller=None) -> SimulationTrace:
    """Simulate the scenario's horizon from ``warm_state(scenario)`` under
    ``controller`` (by default the configured one): :func:`run_batch` on a
    batch of one, whose docstring gives the controller contract. The
    exception that stops the run is raised: ``ControllerError`` for limits
    out of range, ``ValueError`` for a state out of range, or whatever the
    controller raised."""
    if controller is None:
        controller = make_controller(scenario)
    (result,) = run_batch([scenario], [controller])
    if isinstance(result, Exception):
        raise result
    return result


def trace_events(scenario: Scenario, trace: SimulationTrace) -> list[tuple[float, str]]:
    """The run's events in time order, each at ``k * dt_hours`` for the
    first step ``k`` it holds: every change of the posted limits after the
    first posting (labelled with the zone command), the closure's start and
    its advisories at its first held step, and its end at the step after
    its last, if the run has that step. A limit change comes first at one instant."""
    dt, incident = scenario.dt_hours, scenario.incident
    steps, zone = trace.limit_steps[1:].tolist(), trace.limit_rows[1:, 0].tolist()
    events = [(k * dt, f"speed_limits zone={v:.6g}") for k, v in zip(steps, zone)]
    if incident is not None:  # a scenario's closure holds a step
        first, after = np.searchsorted(trace.times, (incident.start, incident.end)).tolist()
        events.append((first * dt, "incident_start"))
        if scenario.lc is not None:
            meters = control.lc_distance(incident.lanes_closed, scenario.lc)
            events.append((first * dt, f"lane_change_advisories distance_m={meters:.6g}"))
        if after < trace.num_samples:
            events.append((after * dt, "incident_end"))
    events.sort(key=lambda event: event[0])  # stable: limit changes first
    return events


# Bundled presets ----------------------------------------------------------

# Zone lengths (km) evaluated in the bundled studies for each demand level.
HIGH_DEMAND_ZONE_SWEEP = (0.0, 0.8, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 3.2, 4.0, 4.8)
MODERATE_DEMAND_ZONE_SWEEP = (0.0, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 3.2, 4.8)

_REFERENCE_FD = FundamentalDiagram(
    capacity=7200.0,
    downstream_capacity=4800.0,
    free_flow_speed=100.0,
    backprop_speed=30.0,
    outflow_backprop_speed=15.0,
    jam_density=312.0,
    outflow_jam_density=552.0,
    capacity_drop_factor=0.1,
)


def _preset(
    name: str,
    demand: float,
    zone_length: float,
    advisory_m: float,
    switch_margin_min: float,
) -> Scenario:
    return Scenario(
        name=name,
        fd=_REFERENCE_FD,
        geometry=NetworkGeometry(
            num_sections=6,
            section_length=1.6,
            upstream_zone_length=zone_length,
        ),
        demand=DemandProfile.constant(demand),
        incident=IncidentSchedule(start=10.0 / 60.0, end=80.0 / 60.0, lanes_closed=1),
        controller="rule_based",
        # derating 0.8 with a 5 km/h sign grid posts 20 km/h before and
        # 25 km/h after the scheduled switch.
        vsl=VslRuleConfig(
            derating=0.8,
            switch_margin=switch_margin_min / 60.0,
            quantize_step=5.0,
        ),
        lc=LcConfig(advisory_distance_per_lane=advisory_m, residual_drop=0.0),
        horizon=1.5,
        dt=1.0,
        control_period=30.0,
        metrics=MetricConfig(),
    )


def high_demand_preset() -> Scenario:
    """Six 1.6 km sections, 7000 veh/h demand, 4.8 km metering zone; the
    scheduled command steps up 20 minutes after the incident starts."""
    return _preset("high_demand", 7000.0, 4.8, 800.0, 6.0)


def moderate_demand_preset() -> Scenario:
    """Same corridor at 5500 veh/h with a 1.6 km metering zone."""
    # Margin chosen so the scheduled switch lands 20 min after the incident.
    return _preset("moderate_demand", 5500.0, 1.6, 700.0, 20.0 - 8.555555555555555)


PRESETS: dict[str, Callable[[], Scenario]] = {
    "high_demand": high_demand_preset,
    "moderate_demand": moderate_demand_preset,
}

ZONE_SWEEPS: dict[str, tuple[float, ...]] = {
    "high_demand": HIGH_DEMAND_ZONE_SWEEP,
    "moderate_demand": MODERATE_DEMAND_ZONE_SWEEP,
}
