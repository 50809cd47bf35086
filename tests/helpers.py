"""Shared generators for randomized and round-trip tests, and the reference
implementations the program is checked against: the probe walk, the
per-step CTM loop and the per-value trace CSV writer."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from vslsim import (
    BoundInputs,
    DemandProfile,
    FdObservation,
    FundamentalDiagram,
    MetricConfig,
    NetworkGeometry,
    Scenario,
    SimulationTrace,
    default_emission_rate,
    high_demand_preset,
    lc_distance,
    make_controller,
    speed_field,
    stop_count,
    warm_state,
)
from vslsim.ctm import engaged_drop, fluxes, speed_caps
from vslsim.metrics import DENSITY_FLOOR


def fine_grid_scenario() -> Scenario:
    """The high-demand corridor cut into 24 x 0.4 km cells behind its 4.8 km
    zone, stepped demand, reactive rule every 10 s on a 0.5 s step."""
    return replace(
        high_demand_preset(),
        name="fine_grid",
        geometry=NetworkGeometry(24, 0.4, 4.8),
        demand=DemandProfile((0.0, 0.5, 1.0), (7000.0, 6200.0, 7400.0)),
        controller="rule_based_reactive",
        dt=0.5,
        control_period=10.0,
        metrics=MetricConfig(seed_interval=120.0),
    )


@dataclass
class GivenFlowsTrace(SimulationTrace):
    """A trace whose boundary flows are given instead of derived from its
    densities by the flux law: hand-made speed fields for the metrics."""

    given_flows: np.ndarray | None = None

    def _flow_blocks(self, rows: int) -> Iterator[tuple[slice, np.ndarray]]:
        for start in range(0, self.num_samples, rows):
            block = slice(start, start + rows)
            yield block, self.given_flows[block]


def random_triangle(rng: np.random.Generator) -> FundamentalDiagram:
    """Random but always triangle-consistent fundamental diagram."""
    v_f = rng.uniform(60.0, 130.0)
    w = rng.uniform(10.0, 45.0)
    w_out = rng.uniform(0.3, 1.0) * w
    capacity = rng.uniform(3000.0, 9000.0)
    return FundamentalDiagram.from_triangle(
        capacity=capacity,
        downstream_capacity=rng.uniform(0.5, 1.0) * capacity,
        free_flow_speed=v_f,
        backprop_speed=w,
        outflow_backprop_speed=w_out,
        capacity_drop_factor=rng.uniform(0.02, 0.4),
    )


def random_feasible_bound_inputs(rng: np.random.Generator) -> BoundInputs:
    """Bound inputs with a zone command strictly slower than the congested
    discharge allows for the drawn entrance occupancy."""
    while True:
        fd = random_triangle(rng)
        n = int(rng.integers(1, 11))
        section_length = rng.uniform(0.3, 3.0)
        densities = rng.uniform(0.0, fd.jam_density, size=n)
        rho0 = rng.uniform(0.0, fd.jam_density)
        v0 = rng.uniform(1.0, fd.free_flow_speed)
        limit = np.inf if rho0 == 0.0 else fd.dropped_capacity / rho0
        if v0 < limit * 0.999:
            return BoundInputs(
                fd=fd,
                num_sections=n,
                section_length=section_length,
                zone_limit=v0,
                upstream_density=rho0,
                densities=densities,
            )


def sample_fd_observations(
    fd: FundamentalDiagram,
    rng: np.random.Generator,
    noise: float = 0.0,
    noise_kind: str = "uniform",
    n_free: int = 330,
    n_capacity: int = 20,
    n_congested: int = 250,
    n_incident_free: int = 150,
    n_recovered: int = 15,
    n_dropped: int = 160,
    n_outflow: int = 75,
) -> list[FdObservation]:
    """Synthetic detector observations drawn from a known diagram.

    The mix mimics a demand ramp-up study: spread over both branches, a
    cluster pinned at capacity operation, and (for the lane-closure set)
    clusters at the recovered and dropped discharge levels plus deep
    congestion on the outflow-limited branch.
    """
    rho_c = fd.critical_density
    thr = fd.downstream_capacity / fd.free_flow_speed
    dropped = fd.dropped_capacity
    # Deepest density at which the dropped discharge is still sustainable.
    plateau_hi = fd.outflow_jam_density - dropped / fd.outflow_backprop_speed

    pairs: list[tuple[float, float, bool]] = []
    for rho in rng.uniform(0.5, 0.98 * rho_c, size=n_free):
        pairs.append((rho, fd.free_flow_speed * rho, False))
    pairs += [(rho_c, fd.capacity, False)] * n_capacity
    for rho in rng.uniform(1.02 * rho_c, 0.98 * fd.jam_density, size=n_congested):
        pairs.append((rho, fd.backprop_speed * (fd.jam_density - rho), False))
    for rho in rng.uniform(0.5, 0.95 * thr, size=n_incident_free):
        pairs.append((rho, fd.free_flow_speed * rho, True))
    pairs += [(thr, fd.downstream_capacity, True)] * n_recovered
    for rho in rng.uniform(1.05 * thr, 0.97 * plateau_hi, size=n_dropped):
        pairs.append((rho, dropped, True))
    for rho in rng.uniform(
        plateau_hi * 1.05, 0.97 * fd.outflow_jam_density, size=n_outflow
    ):
        pairs.append(
            (rho, fd.outflow_backprop_speed * (fd.outflow_jam_density - rho), True)
        )

    out = []
    for rho, q, incident in pairs:
        if noise > 0.0:
            if noise_kind == "uniform":
                q *= 1.0 + noise * rng.uniform(-1.0, 1.0)
            else:
                q *= 1.0 + rng.normal(0.0, noise)
        out.append(FdObservation(density=rho, flow=max(q, 0.0), incident=incident))
    return out


# Reference probe advection ------------------------------------------------
#
# The step-by-step probe walk the crossing-time solver in vslsim.metrics
# replaced, kept as the oracle it is tested against.


@dataclass
class OracleProbe:
    """One probe walked step by step: ``speeds`` and ``durations`` describe
    each traversed interval (the last is cut at the exit); ``exit_time`` is
    None for probes still inside the corridor at the horizon."""

    entry_time: float  # h
    times: np.ndarray  # h, sample instants, len(positions)
    positions: np.ndarray  # km from the entrance
    speeds: np.ndarray  # km/h per traversed interval
    durations: np.ndarray  # h per traversed interval
    exit_time: float | None = None

    @property
    def complete(self) -> bool:
        return self.exit_time is not None

    @property
    def transit_time(self) -> float:
        return self.exit_time - self.entry_time


def _advect(
    k0: int,
    times: list[float],
    speeds: list[list[float]],
    boundaries: list[float],
    dt: float,
) -> OracleProbe:
    total = boundaries[-1]
    n_cells = len(boundaries) - 1
    x = 0.0
    xs = [0.0]
    vs: list[float] = []
    durs: list[float] = []
    exit_time = None
    last = len(times) - 1
    for k in range(k0, last):
        remaining = dt
        start = x
        while remaining > 0.0:
            cell = min(bisect.bisect_right(boundaries, x) - 1, n_cells - 1)
            v = speeds[k][cell]
            if v <= 0.0:
                break
            reach = (boundaries[cell + 1] - x) / v
            if reach > remaining:
                x += v * remaining
                remaining = 0.0
            else:
                x = boundaries[cell + 1]
                remaining -= reach
                if x >= total:
                    exit_time = times[k] + (dt - remaining)
                    break
        used = dt - remaining
        if used > 0.0:
            vs.append((x - start) / used)
            durs.append(used)
        else:
            vs.append(0.0)
            durs.append(dt)
        xs.append(x)
        if exit_time is not None:
            break
    m = len(xs)
    return OracleProbe(
        entry_time=times[k0],
        times=np.asarray(times[k0 : k0 + m]),
        positions=np.asarray(xs),
        speeds=np.asarray(vs),
        durations=np.asarray(durs),
        exit_time=exit_time,
    )


def oracle_probes(
    trace: SimulationTrace, seed_interval: float, rho_min: float = DENSITY_FLOOR
) -> list[OracleProbe]:
    """Probes seeded as ``reconstruct_trajectories`` seeds them, walked step
    by step through the speed field (held as lists: same floats, faster)."""
    dt = trace.dt
    stride = max(1, int(round(seed_interval / dt)))
    field = speed_field(trace, rho_min).tolist()
    boundaries = trace.geometry.cell_boundaries().tolist()
    times = trace.times.tolist()
    inflow = trace.flows[:, 0]
    return [
        _advect(k0, times, field, boundaries, dt)
        for k0 in range(0, trace.num_samples - 1, stride)
        if inflow[k0] > 0.0
    ]


def oracle_stops(probes: list[OracleProbe], v_stop=5.0, v_resume=10.0) -> float:
    done = [p for p in probes if p.complete]
    return float(np.mean([stop_count(p.speeds, v_stop, v_resume) for p in done]))


def oracle_emission(probes: list[OracleProbe], rate=default_emission_rate) -> float:
    """rate(v) * v summed over every moving interval of the completed probes,
    over the distance they covered, with the rate taken at each interval's
    mean speed."""
    done = [p for p in probes if p.complete]
    v = np.concatenate([p.speeds for p in done])
    km = v * np.concatenate([p.durations for p in done])
    moving = v > 0.0
    return float(np.sum(rate(v[moving]) * km[moving]) / np.sum(km[moving]))


# Reference CTM step loop ----------------------------------------------------
#
# The per-step, per-cell loop the array kernel in vslsim.ctm and
# vslsim.simulate replaced, kept as the oracle it is tested against: scalar
# flux law with a Python loop over cells, an Euler step on the cell
# densities, and a run loop that applies both one time step at a time.


def _oracle_vsl_max_flow(speed: float, fd: FundamentalDiagram) -> float:
    w = fd.backprop_speed
    return speed * w * fd.jam_density / (speed + w)


def _oracle_bottleneck_outflow(rho_n, fd, lc_active, lc_residual_drop, cap_d, v_n):
    if not 0.0 <= rho_n <= fd.outflow_jam_density:
        raise ValueError(
            f"bottleneck density {rho_n:.6g} outside [0, {fd.outflow_jam_density:.6g}]"
        )
    eps = 0.0
    if cap_d < fd.capacity and rho_n > cap_d / fd.free_flow_speed:
        eps = lc_residual_drop if lc_active else fd.capacity_drop_factor
    return min(
        v_n * rho_n,
        (1.0 - eps) * cap_d,
        fd.outflow_backprop_speed * (fd.outflow_jam_density - rho_n),
    )


def one_state_flows(
    rho, v, fd, demand, lc_active=False, lc_residual_drop=0.0, downstream_capacity=None
):
    """``vslsim.ctm.fluxes`` on one ``(C,)`` state under posted limits
    ``v = [zone, section 1 .. N]``; the bottleneck cap defaults to the
    incident's."""
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v, dtype=float)
    cap_d = fd.downstream_capacity if downstream_capacity is None else downstream_capacity
    drop = engaged_drop(cap_d, fd, lc_active, lc_residual_drop)
    return fluxes(rho, v, speed_caps(v, rho.shape[-1], fd), demand, cap_d, drop, fd)


def oracle_interface_flows(
    cells: np.ndarray,
    limits: np.ndarray,
    fd: FundamentalDiagram,
    demand: float,
    has_zone: bool,
    lc_active: bool,
    lc_residual_drop: float,
    downstream_capacity: float,
) -> np.ndarray:
    """Every cell-boundary flow ``q_0 .. q_C`` of the cell densities
    ``cells`` (zone first when present) under ``limits = [zone, section 1 ..
    N]``, cell by cell: the admitted inflow first (with a zone it enters the
    zone cell, without one it is ``q_1``, the flow into section 1), the
    bottleneck last."""
    rho = cells[1:] if has_zone else cells
    zone_limit = float(limits[0])
    v = limits[1:]
    n = rho.shape[0]
    w = fd.backprop_speed
    rho_j = fd.jam_density
    zone_cap = _oracle_vsl_max_flow(zone_limit, fd)
    section_cap = [_oracle_vsl_max_flow(float(vi), fd) for vi in v]

    interfaces = np.empty(n + 1)
    supply_1 = max(0.0, w * (rho_j - rho[0]))
    if has_zone:
        rho0 = float(cells[0])
        inflow = min(demand, zone_cap, max(0.0, w * (rho_j - rho0)))
        interfaces[0] = min(zone_limit * rho0, zone_cap, section_cap[0], supply_1)
    else:
        inflow = min(demand, zone_cap, section_cap[0], supply_1)
        interfaces[0] = inflow
    for i in range(1, n):
        interfaces[i] = min(
            v[i - 1] * rho[i - 1],
            section_cap[i - 1],
            section_cap[i],
            max(0.0, w * (rho_j - rho[i])),
        )
    interfaces[n] = _oracle_bottleneck_outflow(
        float(rho[n - 1]),
        fd,
        lc_active,
        lc_residual_drop,
        downstream_capacity,
        float(v[n - 1]),
    )
    return np.concatenate(([inflow], interfaces)) if has_zone else interfaces


def _oracle_step(rho, q, geometry, dt) -> np.ndarray:
    new_rho = rho + (dt / geometry.cell_lengths()) * (q[:-1] - q[1:])
    if np.any(new_rho < -1e-9):
        raise ValueError(f"negative density {float(np.min(new_rho)):.6g} after step")
    return new_rho


def oracle_run(scenario, controller=None) -> SimpleNamespace:
    """The scenario simulated step by step, as ``vslsim.run`` did before the
    array kernel; ``controller`` defaults to the scenario's own. Every
    per-step array, flows and limits included, is stored under the name of
    the ``SimulationTrace`` attribute it is compared with."""
    if controller is None:
        controller = make_controller(scenario)
    fd = scenario.fd
    geometry = scenario.geometry
    dt = scenario.dt_hours
    n_steps = int(round(scenario.horizon / dt))
    ctrl_every = max(1, int(round(scenario.control_period_hours / dt)))
    n_sections = geometry.num_sections
    n_cells = geometry.num_cells

    rho = warm_state(scenario)
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
    limits = None
    was_active = False

    for k in range(n_steps + 1):
        t = k * dt
        if k % ctrl_every == 0 or limits is None:
            new_limits = controller(rho, t)
            if limits is None or not np.array_equal(new_limits, limits):
                if limits is not None:
                    events.append((t, f"speed_limits zone={new_limits[0]:.6g}"))
                limits = new_limits

        active = incident is not None and incident.start <= t < incident.end
        lc_on = active and lc is not None
        if active and not was_active:
            events.append((t, "incident_start"))
            if lc_on:
                meters = lc_distance(incident.lanes_closed, lc)
                events.append((t, f"lane_change_advisories distance_m={meters:.6g}"))
        if was_active and not active:
            events.append((t, "incident_end"))
        was_active = active

        demand = scenario.demand.flows[bisect.bisect_right(scenario.demand.times, t) - 1]
        q = oracle_interface_flows(
            rho,
            limits,
            fd,
            demand,
            has_zone=geometry.has_zone,
            lc_active=lc_on,
            lc_residual_drop=lc.residual_drop if lc is not None else 0.0,
            downstream_capacity=fd.downstream_capacity if active else fd.capacity,
        )

        times[k] = t
        densities[k] = rho
        flow_rows[k] = q
        limit_rows[k] = limits
        demand_row[k] = demand
        incident_row[k] = active
        lc_row[k] = lc_on

        if k < n_steps:
            rho = _oracle_step(rho, q, geometry, dt)

    return SimpleNamespace(
        times=times,
        densities=densities,
        flows=flow_rows,
        limits=limit_rows,
        demand=demand_row,
        incident_active=incident_row,
        lc_active=lc_row,
        events=events,
    )


def oracle_to_csv(trace: SimulationTrace, path, comment: str | None = None) -> None:
    """The trace CSV written one f-string per value, as ``to_csv`` did
    before the blocked writer."""
    n = trace.geometry.num_sections
    columns = ["t_h", "rho_0"]
    columns += [f"rho_{i}" for i in range(1, n + 1)]
    columns += ["q_in"] + [f"q_{i}" for i in range(1, n + 2)]
    columns += [f"v_{i}" for i in range(n + 1)]
    columns += ["incident", "lc"]
    sections = trace.section_densities
    if trace.geometry.has_zone:
        boundary = trace.flows
    else:
        boundary = np.hstack((trace.flows[:, :1], trace.flows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for k in range(trace.num_samples):
            row = [f"{trace.times[k]:.10g}", f"{trace.upstream_densities[k]:.10g}"]
            row += [f"{x:.10g}" for x in sections[k]]
            row += [f"{x:.10g}" for x in boundary[k]]
            row += [f"{x:.10g}" for x in trace.limits[k]]
            row += [str(int(trace.incident_active[k])), str(int(trace.lc_active[k]))]
            fh.write(",".join(row) + "\n")
