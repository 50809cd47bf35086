"""Virtual-vehicle trajectories over a simulated trace and the derived
performance measures: average travel time, stop counts, emission rates, and
the density tracking error.

The macroscopic fields carry no vehicle identities, so probe vehicles are
seeded at the entrance on a fixed interval and advected through the
piecewise-constant speed field ``min(outflow / density, posted limit)`` cell
by cell. Probes never overtake one another: within a step a probe crossing a
cell boundary continues at the next cell's speed for the remaining fraction of
the step.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .simulate import SimulationTrace

# Convex speed-to-CO2 curve rate(v) = a + b/v + c v^2 in g/km, anchored at
# roughly 320 g/km at 100 km/h and 395 g/km at 20 km/h with its minimum near
# 75 km/h. Plausible magnitudes only; override per scenario for real studies.
EMISSION_COEFFS = (262.7407, 2620.3416, 0.0031056)

# Below this density (veh/km) a cell is treated as empty and probes move at
# the posted limit; avoids dividing tiny flows by tinier densities.
DENSITY_FLOOR = 1.0


def default_emission_rate(speed: float) -> float:
    """Emission rate in g/km at a sustained speed in km/h."""
    if speed <= 0.0:
        raise ValueError("speed must be strictly positive")
    a, b, c = EMISSION_COEFFS
    return a + b / speed + c * speed * speed


def emission_rate_from_table(points: Sequence[tuple[float, float]]) -> Callable[[float], float]:
    """Interpolating rate function from (speed km/h, rate g/km) pairs."""
    pts = sorted((float(v), float(r)) for v, r in points)
    if len(pts) < 2:
        raise ValueError("emission table needs at least two points")
    speeds = np.array([p[0] for p in pts])
    rates = np.array([p[1] for p in pts])

    def rate(speed: float) -> float:
        return float(np.interp(speed, speeds, rates))

    return rate


def speed_field(trace: SimulationTrace, rho_min: float = DENSITY_FLOOR) -> np.ndarray:
    """(T, num_cells) probe speeds for every sample and cell."""
    has_zone = trace.geometry.has_zone
    rho = trace.densities
    q_out = trace.flows[:, 1:]
    limits = trace.limits if has_zone else trace.limits[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rho > 0.0, q_out / np.where(rho > 0.0, rho, 1.0), np.inf)
    return np.where(rho > rho_min, np.minimum(ratio, limits), limits)


@dataclass
class VirtualTrajectory:
    """One probe vehicle: entry instant, sampled positions, travel speeds.

    ``positions`` has one entry per visited sample; ``speeds`` and
    ``durations`` describe each traversed interval (the final interval is
    shorter than the grid step when the probe exits mid-step). ``exit_time``
    stays None for probes still inside the corridor at the horizon.
    """

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
        if self.exit_time is None:
            raise ValueError("trajectory did not exit the corridor")
        return self.exit_time - self.entry_time

    @property
    def distance(self) -> float:
        return float(self.positions[-1] - self.positions[0])


def _advect(
    k0: int,
    times: np.ndarray,
    speeds: np.ndarray,
    boundaries: np.ndarray,
    dt: float,
) -> VirtualTrajectory:
    total = boundaries[-1]
    n_cells = boundaries.shape[0] - 1
    x = 0.0
    xs = [0.0]
    vs: list[float] = []
    durs: list[float] = []
    exit_time = None
    last = times.shape[0] - 1
    for k in range(k0, last):
        remaining = dt
        start = x
        while remaining > 0.0:
            cell = min(bisect.bisect_right(boundaries, x) - 1, n_cells - 1)
            v = float(speeds[k, cell])
            if v <= 0.0:
                break
            reach = (boundaries[cell + 1] - x) / v
            if reach > remaining:
                x += v * remaining
                remaining = 0.0
            else:
                x = float(boundaries[cell + 1])
                remaining -= reach
                if x >= total:
                    exit_time = float(times[k]) + (dt - remaining)
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
    return VirtualTrajectory(
        entry_time=float(times[k0]),
        times=times[k0 : k0 + m].copy(),
        positions=np.asarray(xs),
        speeds=np.asarray(vs),
        durations=np.asarray(durs),
        exit_time=exit_time,
    )


def reconstruct_trajectories(
    trace: SimulationTrace,
    seed_interval: float,
    rho_min: float = DENSITY_FLOOR,
) -> list[VirtualTrajectory]:
    """Seed one probe at the entrance every ``seed_interval`` hours while
    demand is being admitted, and advect each through the speed field."""
    if seed_interval <= 0.0:
        raise ValueError("seed_interval must be strictly positive")
    dt = trace.dt
    if dt <= 0.0:
        return []
    stride = max(1, int(round(seed_interval / dt)))
    field = speed_field(trace, rho_min)
    boundaries = trace.geometry.cell_boundaries()
    inflow = trace.inflow
    out: list[VirtualTrajectory] = []
    for k0 in range(0, trace.num_samples - 1, stride):
        if inflow[k0] > 0.0:
            out.append(_advect(k0, trace.times, field, boundaries, dt))
    return out


def stop_count(speeds: Sequence[float], v_stop: float, v_resume: float) -> int:
    """Hysteresis stop counter over one speed profile.

    A stop is a drop below ``v_stop`` occurring after the speed has reached at
    least ``v_resume`` since the previous counted stop. The counter arms only
    once the profile first reaches ``v_resume``.
    """
    if v_stop >= v_resume:
        raise ValueError("v_stop must be below v_resume")
    stops = 0
    armed = False
    for v in speeds:
        if v >= v_resume:
            armed = True
        elif armed and v < v_stop:
            stops += 1
            armed = False
    return stops


def avg_stops(
    trajectories: Sequence[VirtualTrajectory],
    v_stop: float = 5.0,
    v_resume: float = 10.0,
) -> float:
    """Mean number of stops per completed probe."""
    done = [t for t in trajectories if t.complete]
    if not done:
        return float("nan")
    return float(np.mean([stop_count(t.speeds, v_stop, v_resume) for t in done]))


def avg_emission(
    trajectories: Sequence[VirtualTrajectory],
    rate_fn: Callable[[float], float] | None = None,
) -> float:
    """Distance-weighted mean emission rate over completed probes (g/veh/km).

    Integrates rate(v) * v over each probe's travel intervals and divides by
    the total distance; intervals at zero speed cover zero distance and are
    skipped.
    """
    rate = default_emission_rate if rate_fn is None else rate_fn
    done = [t for t in trajectories if t.complete]
    if not done:
        return float("nan")
    grams = 0.0
    km = 0.0
    for traj in done:
        for v, dur in zip(traj.speeds, traj.durations):
            if v > 0.0:
                grams += rate(v) * v * dur
                km += v * dur
    if km == 0.0:
        return float("nan")
    return grams / km


def _window_mask(trace: SimulationTrace, t_start: float, t_end: float) -> np.ndarray:
    if t_start >= t_end:
        raise ValueError("window must satisfy t_start < t_end")
    if t_start < trace.times[0] - 1e-12 or t_end > trace.times[-1] + 1e-12:
        raise ValueError("window lies outside the trace")
    return (trace.times >= t_start - 1e-12) & (trace.times <= t_end + 1e-12)


def rrmse_density_pooled(
    trace: SimulationTrace,
    rho_star: float,
    t_start: float,
    t_end: float,
) -> float:
    """Relative RMS deviation pooled over sections and time.

    Every section's deviation from the target enters the mean square
    individually, so one congested section cannot hide behind the
    cross-section average. This is the variant reported by the metric
    pipeline and the sweep summaries.
    """
    if rho_star <= 0.0:
        raise ValueError("rho_star must be strictly positive")
    mask = _window_mask(trace, t_start, t_end)
    rho = trace.section_densities[mask]
    return float(np.sqrt(np.mean((rho - rho_star) ** 2))) / rho_star


@dataclass(frozen=True)
class MetricsReport:
    """Per-run summary of the four performance measures."""

    att_min: float  # minutes, NaN when no probe completed
    avg_stops: float  # stops per vehicle
    avg_emission_g_per_km: float  # g/veh/km
    rrmse: float  # fraction
    vehicles_counted: int  # completed probes

    def to_dict(self) -> dict[str, float]:
        return {
            "att_min": self.att_min,
            "avg_stops": self.avg_stops,
            "avg_emission_g_per_km": self.avg_emission_g_per_km,
            "rrmse": self.rrmse,
            "vehicles_counted": self.vehicles_counted,
        }


def compute_metrics(
    trace: SimulationTrace,
    seed_interval: float,
    rho_star: float,
    window: tuple[float, float],
    v_stop: float = 5.0,
    v_resume: float = 10.0,
    rate_fn: Callable[[float], float] | None = None,
    rho_min: float = DENSITY_FLOOR,
) -> MetricsReport:
    """Reconstruct probes and evaluate every performance measure at once.

    The density tracking error is the pooled per-section variant; it is NaN
    when the target density is zero (empty-road scenarios) or the window is
    degenerate.
    """
    trajectories = reconstruct_trajectories(trace, seed_interval, rho_min)
    done = [t for t in trajectories if t.complete]
    att_min = 60.0 * float(np.mean([t.transit_time for t in done])) if done else math.nan
    if rho_star > 0.0 and window[1] > window[0]:
        rrmse = rrmse_density_pooled(trace, rho_star, window[0], window[1])
    else:
        rrmse = math.nan
    return MetricsReport(
        att_min=att_min,
        avg_stops=avg_stops(trajectories, v_stop, v_resume),
        avg_emission_g_per_km=avg_emission(trajectories, rate_fn),
        rrmse=rrmse,
        vehicles_counted=len(done),
    )
