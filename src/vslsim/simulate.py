"""Time integration of the cell transmission model under a controller, an
incident schedule, and a demand profile.

Explicit Euler on the flow-conservation update, default step 1 s, with the
controller consulted on a fixed actuation period and its limits held constant
in between. While the incident is active the bottleneck interface is capped by
the downstream capacity (with the capacity drop engaged above critical
occupancy); outside the incident window the cap reverts to the mainline
capacity and the drop is inert.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .control import Controller, lc_distance
from .ctm import (
    FlowVector,
    FundamentalDiagram,
    NetworkGeometry,
    SpeedLimits,
    TrafficState,
    interface_flows,
)

if TYPE_CHECKING:
    from .scenario import Scenario


class CflViolationError(ValueError):
    """Time step too large for the cell lengths and wave speeds."""


class ControllerError(ValueError):
    """A controller produced speed limits outside the admissible range."""


@dataclass(frozen=True)
class IncidentSchedule:
    """Lane-closure window creating the downstream bottleneck."""

    start: float  # h
    end: float  # h
    lanes_closed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < self.end:
            raise ValueError("incident must satisfy 0 <= start < end")
        if self.lanes_closed < 1:
            raise ValueError("lanes_closed must be at least 1")

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


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
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("demand profile times must be strictly increasing")
        if any(f < 0.0 for f in self.flows):
            raise ValueError("demand flows must be non-negative")

    @classmethod
    def constant(cls, flow: float) -> "DemandProfile":
        return cls((0.0,), (float(flow),))

    def at(self, t: float) -> float:
        return self.flows[bisect.bisect_right(self.times, t) - 1]


def cfl_limit(geometry: NetworkGeometry, fd: FundamentalDiagram) -> float:
    """Largest admissible Euler step (h) for this geometry and diagram."""
    fastest = max(fd.free_flow_speed, fd.backprop_speed, fd.outflow_backprop_speed)
    return float(np.min(geometry.cell_lengths())) / fastest


def step(
    state: TrafficState,
    flows: FlowVector,
    geometry: NetworkGeometry,
    dt: float,
) -> TrafficState:
    """Advance one Euler step: rho_i += dt / L_i * (q_i - q_{i+1}).

    The update covers the metering zone (its own length) when the geometry has
    one. With the CFL bound satisfied (``run`` checks it) the result stays
    non-negative; a negative density signals a flux bug and raises.
    """
    if dt <= 0.0:
        raise ValueError("dt must be strictly positive")
    rho = state.all_densities(geometry.has_zone)
    if geometry.has_zone:
        q = np.concatenate(([flows.inflow], flows.interfaces))
    else:
        q = flows.interfaces
    if q.shape[0] != rho.shape[0] + 1:
        raise ValueError("flow vector does not match the cell count")
    new_rho = rho + (dt / geometry.cell_lengths()) * (q[:-1] - q[1:])
    if np.any(new_rho < -1e-9):
        raise ValueError(
            f"negative density {float(np.min(new_rho)):.6g} after step; "
            "flux computation is inconsistent"
        )
    t = state.time + dt
    if geometry.has_zone:
        return TrafficState(t, float(new_rho[0]), new_rho[1:])
    return TrafficState(t, float(new_rho[0]), new_rho)


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

    @property
    def bottleneck_outflow(self) -> np.ndarray:
        return self.flows[:, -1]

    def state_at(self, index: int) -> TrafficState:
        row = self.densities[index]
        if self.geometry.has_zone:
            return TrafficState(float(self.times[index]), float(row[0]), row[1:])
        return TrafficState(float(self.times[index]), float(row[0]), row)

    def limits_at(self, index: int) -> SpeedLimits:
        row = self.limits[index]
        return SpeedLimits(float(row[0]), row[1:])

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
        sections = self.section_densities
        if self.geometry.has_zone:
            boundary = self.flows
        else:
            # No zone cell: the admitted inflow and q_1 coincide.
            boundary = np.hstack((self.flows[:, :1], self.flows))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write(",".join(columns) + "\n")
            for k in range(self.num_samples):
                row = [f"{self.times[k]:.10g}", f"{self.upstream_densities[k]:.10g}"]
                row += [f"{x:.10g}" for x in sections[k]]
                row += [f"{x:.10g}" for x in boundary[k]]
                row += [f"{x:.10g}" for x in self.limits[k]]
                row += [str(int(self.incident_active[k])), str(int(self.lc_active[k]))]
                fh.write(",".join(row) + "\n")


def _check_limits(limits: SpeedLimits, fd: FundamentalDiagram, n: int) -> SpeedLimits:
    if not isinstance(limits, SpeedLimits):
        raise ControllerError("controller must return a SpeedLimits value")
    if limits.num_sections != n:
        raise ControllerError(
            f"controller returned {limits.num_sections} section limits, expected {n}"
        )
    if limits.zone > fd.free_flow_speed or np.any(limits.sections > fd.free_flow_speed):
        raise ControllerError("controller returned a limit above free flow speed")
    return limits


def warm_state(scenario: "Scenario") -> TrafficState:
    """Free-flow equilibrium at the initial demand: every cell at
    min(demand, capacity) / free_flow_speed."""
    rho = min(scenario.demand.at(0.0), scenario.fd.capacity) / scenario.fd.free_flow_speed
    return TrafficState.uniform(rho, scenario.geometry.num_sections)


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
    """
    fd = scenario.fd
    geometry = scenario.geometry
    dt = scenario.dt_hours
    if dt > cfl_limit(geometry, fd):
        raise CflViolationError(
            f"dt = {scenario.dt:.6g} s exceeds the CFL limit "
            f"{cfl_limit(geometry, fd) * 3600:.6g} s for this geometry"
        )
    n_steps = int(round(scenario.horizon / dt))
    ctrl_every = max(1, int(round(scenario.control_period_hours / dt)))
    n_sections = geometry.num_sections
    n_cells = geometry.num_cells

    state = initial_state if initial_state is not None else warm_state(scenario)
    if state.num_sections != n_sections:
        raise ValueError("initial state does not match the geometry")

    times = np.empty(n_steps + 1)
    densities = np.empty((n_steps + 1, n_cells))
    flow_rows = np.empty((n_steps + 1, n_cells + 1))
    limit_rows = np.empty((n_steps + 1, n_sections + 1))
    demand_row = np.empty(n_steps + 1)
    incident_row = np.zeros(n_steps + 1, dtype=bool)
    lc_row = np.zeros(n_steps + 1, dtype=bool)
    events: list[tuple[float, str]] = []

    incident = scenario.incident
    lc = scenario.lc
    limits: SpeedLimits | None = None
    was_active = False

    for k in range(n_steps + 1):
        t = k * dt
        if k % ctrl_every == 0 or limits is None:
            new_limits = _check_limits(controller(state, t), fd, n_sections)
            if limits is None or not np.array_equal(
                new_limits.as_array(), limits.as_array()
            ):
                if limits is not None:
                    events.append((t, f"speed_limits zone={new_limits.zone:.6g}"))
                limits = new_limits

        active = incident.active(t) if incident is not None else False
        lc_on = active and lc is not None
        if active and not was_active:
            events.append((t, "incident_start"))
            if lc_on:
                meters = lc_distance(incident.lanes_closed, lc)
                events.append((t, f"lane_change_advisories distance_m={meters:.6g}"))
        if was_active and not active:
            events.append((t, "incident_end"))
        was_active = active

        demand = scenario.demand.at(t)
        flows = interface_flows(
            state,
            limits,
            fd,
            demand,
            has_zone=geometry.has_zone,
            lc_active=lc_on,
            lc_residual_drop=lc.residual_drop if lc is not None else 0.0,
            downstream_capacity=fd.downstream_capacity if active else fd.capacity,
        )

        times[k] = t
        densities[k] = state.all_densities(geometry.has_zone)
        if geometry.has_zone:
            flow_rows[k, 0] = flows.inflow
            flow_rows[k, 1:] = flows.interfaces
        else:
            flow_rows[k] = flows.interfaces
        limit_rows[k] = limits.as_array()
        demand_row[k] = demand
        incident_row[k] = active
        lc_row[k] = lc_on

        if k < n_steps:
            state = step(state, flows, geometry, dt)

    return SimulationTrace(
        geometry=geometry,
        fd=fd,
        times=times,
        densities=densities,
        flows=flow_rows,
        limits=limit_rows,
        demand=demand_row,
        incident_active=incident_row,
        lc_active=lc_row,
        events=events,
    )
