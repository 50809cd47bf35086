"""Shared generators for randomized and round-trip tests, and the reference
probe walk the metrics are checked against."""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from vslsim import (
    BoundInputs,
    FdObservation,
    FundamentalDiagram,
    SimulationTrace,
    default_emission_rate,
    speed_field,
    stop_count,
)
from vslsim.metrics import DENSITY_FLOOR


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
    return [
        _advect(k0, times, field, boundaries, dt)
        for k0 in range(0, trace.num_samples - 1, stride)
        if trace.inflow[k0] > 0.0
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
