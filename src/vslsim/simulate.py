"""Time integration of the cell transmission model under a controller, an
incident schedule, and a demand profile.

Explicit Euler on the flow-conservation update, default step 1 s, with the
controller consulted on a fixed actuation period and its limits held constant
in between. While the incident is active the bottleneck interface is capped by
the downstream capacity (with the capacity drop engaged above critical
occupancy); outside the incident window the cap reverts to the mainline
capacity and the drop is inert.

``run`` works on arrays: the demand, incident and lane-change flags and the
bottleneck regime are computed once per run as ``(T,)`` arrays, each step writes
:func:`~vslsim.ctm.fluxes` and :func:`~vslsim.ctm.euler_update` into
preallocated rows of the trace, and a ``TrafficState`` is built only for the
controller, at control instants. Density and flow bounds are checked over the
finished arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .control import Controller, lc_distance
from .ctm import (
    FundamentalDiagram,
    NetworkGeometry,
    SpeedLimits,
    TrafficState,
    engaged_drop,
    euler_update,
    fluxes,
    speed_caps,
)

if TYPE_CHECKING:
    from .scenario import Scenario

# Rows of the trace CSV formatted per write. The block's temporary table
# (column_stack, then one Python float per value) stays at tens of kB; a
# whole-trace table would add megabytes to the peak memory of a run.
CSV_BLOCK_ROWS = 10


class ControllerError(ValueError):
    """A controller produced speed limits outside the admissible range."""


@dataclass(frozen=True)
class IncidentSchedule:
    """Lane-closure window creating the downstream bottleneck."""

    start: float  # h
    end: float  # h
    lanes_closed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < self.end < np.inf:
            raise ValueError("incident must satisfy 0 <= start < end < inf")
        if not 1 <= self.lanes_closed < np.inf:
            raise ValueError("lanes_closed must be at least 1")

    def active(self, t):
        """Whether the closure is in force at time(s) ``t`` (h), elementwise."""
        return (self.start <= t) & (t < self.end)


@dataclass(frozen=True)
class DemandProfile:
    """Piecewise-constant upstream demand (veh/h) over time (h)."""

    times: tuple[float, ...]
    flows: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.flows) or not self.times:
            raise ValueError("times and flows must be non-empty and equal length")
        if self.times[0] != 0.0:
            raise ValueError("demand profile must start at t = 0")
        if not all(a < b < np.inf for a, b in zip(self.times, self.times[1:])):
            raise ValueError("demand profile times must be finite and strictly increasing")
        if not all(0.0 <= f < np.inf for f in self.flows):
            raise ValueError("demand flows must be non-negative")

    @classmethod
    def constant(cls, flow: float) -> "DemandProfile":
        return cls((0.0,), (float(flow),))

    def at(self, t):
        """Demand in force at time(s) ``t`` (h): the flow of the last step
        starting at or before ``t``. A float gives a float, an array an array.
        A negative or NaN time raises ValueError."""
        scalar = np.ndim(t) == 0
        if not (t >= 0.0 if scalar else np.all(np.greater_equal(t, 0.0))):
            raise ValueError(f"demand time must be non-negative, got {t!r}")
        step = np.searchsorted(self.times, t, side="right") - 1  # bisect_right - 1
        flows = np.asarray(self.flows)[step]
        return float(flows) if scalar else flows


def cfl_limit(geometry: NetworkGeometry, fd: FundamentalDiagram) -> float:
    """Largest admissible Euler step (h) for this geometry and diagram."""
    fastest = max(fd.free_flow_speed, fd.backprop_speed, fd.outflow_backprop_speed)
    return float(np.min(geometry.cell_lengths())) / fastest


@dataclass
class SimulationTrace:
    """Complete record of one run on a uniform time grid.

    ``densities`` covers every simulated cell (zone first when present);
    ``flows`` holds the cell-boundary flows, admitted inflow first and
    bottleneck discharge last; ``limits`` stores the posted speeds as
    ``[zone, section 1 .. section N]``.
    """

    geometry: NetworkGeometry
    fd: FundamentalDiagram
    times: np.ndarray
    densities: np.ndarray
    flows: np.ndarray
    limits: np.ndarray
    demand: np.ndarray
    incident_active: np.ndarray
    lc_active: np.ndarray
    events: list[tuple[float, str]] = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        return self.times.shape[0]

    @property
    def dt(self) -> float:
        if self.num_samples < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    @property
    def section_densities(self) -> np.ndarray:
        """(T, N) view of the mainline sections."""
        return self.densities[:, 1:] if self.geometry.has_zone else self.densities

    @property
    def upstream_densities(self) -> np.ndarray:
        return self.densities[:, 0]

    @property
    def inflow(self) -> np.ndarray:
        """Demand admitted into the corridor at each sample (veh/h)."""
        return self.flows[:, 0]

    def vehicle_balance(self) -> dict[str, float]:
        """Cumulative conservation audit over the whole run.

        ``residual`` is (final storage - initial storage) - (entered - exited)
        in vehicles; it should vanish to float precision for a correct flux
        and update pairing.
        """
        dt = self.dt
        lengths = self.geometry.cell_lengths()
        entered = float(np.sum(self.flows[:-1, 0])) * dt
        exited = float(np.sum(self.flows[:-1, -1])) * dt
        stored_initial = float(lengths @ self.densities[0])
        stored_final = float(lengths @ self.densities[-1])
        return {
            "entered": entered,
            "exited": exited,
            "stored_initial": stored_initial,
            "stored_final": stored_final,
            "residual": (stored_final - stored_initial) - (entered - exited),
        }

    def to_csv(self, path, comment: str | None = None) -> None:
        """Write one row per sample; a leading comment line carries provenance."""
        n = self.geometry.num_sections
        columns = ["t_h", "rho_0"]
        columns += [f"rho_{i}" for i in range(1, n + 1)]
        columns += ["q_in"] + [f"q_{i}" for i in range(1, n + 2)]
        columns += [f"v_{i}" for i in range(n + 1)]
        columns += ["incident", "lc"]
        table = [self.times, self.upstream_densities, self.section_densities]
        if not self.geometry.has_zone:
            # No zone cell: the admitted inflow and q_1 coincide.
            table.append(self.flows[:, 0])
        table += [self.flows, self.limits, self.incident_active, self.lc_active]
        fmt = ",".join(["%.10g"] * (len(columns) - 2) + ["%d", "%d"]) + "\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write(",".join(columns) + "\n")
            for start in range(0, self.num_samples, CSV_BLOCK_ROWS):
                block = slice(start, start + CSV_BLOCK_ROWS)
                rows = np.column_stack([col[block] for col in table]).tolist()
                fh.write("".join([fmt % tuple(row) for row in rows]))


def _check_limits(limits: SpeedLimits, fd: FundamentalDiagram, n: int) -> SpeedLimits:
    if not isinstance(limits, SpeedLimits):
        raise ControllerError("controller must return a SpeedLimits value")
    if limits.num_sections != n:
        raise ControllerError(
            f"controller returned {limits.num_sections} section limits, expected {n}"
        )
    v_f = fd.free_flow_speed
    if not (limits.zone <= v_f and np.all(limits.sections <= v_f)):  # NaN fails
        raise ControllerError("controller returned a limit above free flow or NaN")
    return limits


def warm_state(scenario: "Scenario") -> TrafficState:
    """Free-flow equilibrium at the initial demand: every cell at
    min(demand, capacity) / free_flow_speed."""
    rho = min(scenario.demand.at(0.0), scenario.fd.capacity) / scenario.fd.free_flow_speed
    return TrafficState.uniform(rho, scenario.geometry.num_sections)


def _incident_events(
    scenario: "Scenario", active: np.ndarray, lc_on: np.ndarray, dt: float
) -> list[tuple[float, str]]:
    """Closure and advisory switches, at the first step each holds."""
    events: list[tuple[float, str]] = []
    incident, lc = scenario.incident, scenario.lc
    before = np.concatenate(([False], active[:-1]))
    for k in np.flatnonzero(active != before).tolist():
        t = k * dt
        if not active[k]:
            events.append((t, "incident_end"))
            continue
        events.append((t, "incident_start"))
        if lc_on[k]:
            meters = lc_distance(incident.lanes_closed, lc)
            events.append((t, f"lane_change_advisories distance_m={meters:.6g}"))
    return events


def _check_run(
    times: np.ndarray, densities: np.ndarray, flows: np.ndarray, fd: FundamentalDiagram
) -> None:
    """Raise at the first step whose densities or flows leave the model's
    range: a density that is negative or not finite, a bottleneck density
    above ``outflow_jam_density``, a negative flow; NaN fails every test.
    The message names the step, its time and the cell (for a flow, the cell
    whose upstream edge it crosses; the last edge is the bottleneck)."""
    jam_out = fd.outflow_jam_density
    n = densities.shape[1] - 1
    # Reductions first: they allocate nothing, and NaN propagates through them.
    if (
        densities.min() >= 0.0
        and densities.max() < np.inf
        and densities[:, n].max() <= jam_out
        and (flows.size == 0 or flows.min() >= 0.0)
    ):
        return
    found = []
    for values, ok, problem in (
        (
            densities,
            (densities >= 0.0) & (densities < np.inf),
            "cell {c} density {x:.6g} is negative or not finite",
        ),
        (
            densities[:, n:],
            densities[:, n:] <= jam_out,
            f"bottleneck cell {n} density {{x:.6g}} outside [0, {jam_out:.6g}]",
        ),
        (flows, flows >= 0.0, "flow {x:.6g} into cell {c} is negative or not a number"),
    ):
        bad = ~ok
        if bad.any():
            k, c = np.unravel_index(np.argmax(bad), bad.shape)
            found.append((k, problem.format(c=c, x=values[k, c])))
    k, problem = min(found, key=lambda item: item[0])
    raise ValueError(
        f"step {k} (t = {times[k] * 60.0:.6g} min): {problem}; "
        "flux computation is inconsistent"
    )


def run(
    scenario: "Scenario",
    controller: Controller,
    initial_state: TrafficState | None = None,
) -> SimulationTrace:
    """Simulate the scenario horizon under the given controller.

    The controller is consulted every actuation period with the measured
    state; between consultations the posted limits hold. The incident window
    switches the bottleneck cap to the downstream capacity and, when lane
    change advisories are configured, replaces the capacity-drop factor with
    the configured residual. Identical inputs produce bit-identical traces.
    The scenario checked itself when it was built, so its step meets the CFL
    bound and divides the horizon and the control period into whole steps.
    A density or flow out of range raises ``ValueError`` naming the first
    step and cell it occurs at.
    """
    fd = scenario.fd
    geometry = scenario.geometry
    dt = scenario.dt_hours
    n_steps = int(round(scenario.horizon / dt))
    ctrl_every = int(round(scenario.control_period_hours / dt))
    n_sections = geometry.num_sections
    has_zone = geometry.has_zone

    state = initial_state if initial_state is not None else warm_state(scenario)
    if state.num_sections != n_sections:
        raise ValueError("initial state does not match the geometry")

    # Everything that does not depend on the densities, once per run.
    times = np.arange(n_steps + 1) * dt
    demand = scenario.demand.at(times)
    if scenario.incident is None:
        active = np.zeros(n_steps + 1, dtype=bool)
    else:
        active = scenario.incident.active(times)
    lc = scenario.lc
    lc_on = active & (lc is not None)
    # The bottleneck cap and drop factor take three values (open, closed,
    # closed with advisories), picked per step by a (T,) regime index: two
    # (T,) float arrays alive through the loop would add to peak memory.
    regime = active.astype(np.int8) + lc_on
    regime_cap = (fd.capacity, fd.downstream_capacity, fd.downstream_capacity)
    residual = lc.residual_drop if lc is not None else 0.0
    regime_drop = engaged_drop(np.array(regime_cap), fd, (False, False, True), residual)
    regime_drop = regime_drop.tolist()

    densities = np.empty((n_steps + 1, geometry.num_cells))
    densities[0] = state.all_densities(has_zone)
    flows = np.empty((n_steps + 1, geometry.num_cells + 1))
    limits = np.empty((n_steps + 1, n_sections + 1))
    dt_over_length = dt / geometry.cell_lengths()
    events: list[tuple[float, str]] = []
    posted = cap = None
    jam_out = fd.outflow_jam_density

    for k, (rho, d_k, r_k) in enumerate(zip(densities, demand, regime)):
        if k % ctrl_every == 0:
            t = k * dt
            if not (np.all(rho >= 0.0) and rho[-1] <= jam_out):
                _check_run(times[: k + 1], densities[: k + 1], flows[:k], fd)
            state = TrafficState.from_cells(t, rho, has_zone)
            new = _check_limits(controller(state, t), fd, n_sections)
            row = new.as_array()
            if posted is None or not np.array_equal(row, posted):
                if posted is not None:
                    events.append((t, f"speed_limits zone={new.zone:.6g}"))
                posted, cap = row, speed_caps(row, geometry.num_cells, fd)
            limits[k : k + ctrl_every] = posted
        cap_d, drop = regime_cap[r_k], regime_drop[r_k]
        q = fluxes(rho, posted, cap, d_k, cap_d, drop, fd, out=flows[k])
        if k < n_steps:
            euler_update(rho, q, dt_over_length, out=densities[k + 1])

    _check_run(times, densities, flows, fd)
    # Stable sort: at one instant the controller's event precedes the incident's.
    events += _incident_events(scenario, active, lc_on, dt)
    events.sort(key=lambda event: event[0])
    return SimulationTrace(
        geometry=geometry,
        fd=fd,
        times=times,
        densities=densities,
        flows=flows,
        limits=limits,
        demand=demand,
        incident_active=active,
        lc_active=lc_on,
        events=events,
    )
