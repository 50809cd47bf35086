"""Virtual-vehicle trajectories over a simulated trace and the derived
performance measures: average travel time, stop counts, emission rates, and
the density tracking error.

The macroscopic fields carry no vehicle identities, so probe vehicles are
seeded at the entrance on a fixed interval and advected through the speed
field ``min(outflow / density, posted limit)``, which is constant in each cell
over each step. The distance a vehicle can cover in cell ``c`` by time ``t`` is
therefore the piecewise-linear ``S_c(t)``, the running sum of ``v_c dt``, and a
probe entering the cell at ``t`` leaves it at the first instant where
``S_c = S_c(t) + L_c``. One cumulative sum and one ``searchsorted`` per cell
give the crossing times of every probe at once (Daganzo 1994, Transp. Res. B
28(4) for the cell transmission model). ``S_c`` is non-decreasing, so probes
never overtake one another.

Travel time is exit minus entry. Emission integrates the same way: a probe's
grams in cell ``c`` are the running integral of ``rate(v_c) v_c`` differenced
at its entry and exit, and the reported rate is the grams of completed probes
over the distance they covered. Stop counts run a hysteresis counter over each
probe's step-averaged speed (distance covered in a step over the time spent in
it); when no cell speed anywhere falls below the stop threshold, no average
can, and the count is zero without building the profiles.

``evaluate_trace(scenario, trace)`` is the one way from a trace to a
``MetricsReport``: it reads the seed interval, stop and resume speeds, density
floor and emission curve from ``scenario.metrics``, and the tracking target
and window from the scenario.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .simulate import CSV_BLOCK_VALUES, SimulationTrace

if TYPE_CHECKING:
    from .scenario import Scenario

# Maps an array of speeds (km/h) to an array of emission rates (g/km); a
# callable returning one constant broadcasts.
RateFn = Callable[[np.ndarray], np.ndarray]

# Convex speed-to-CO2 curve rate(v) = a + b/v + c v^2 in g/km, anchored at
# roughly 320 g/km at 100 km/h and 395 g/km at 20 km/h with its minimum near
# 75 km/h. Plausible magnitudes only; override per scenario for real studies.
EMISSION_COEFFS = (262.7407, 2620.3416, 0.0031056)

# Below this density (veh/km) a cell is treated as empty and probes move at
# the posted limit; avoids dividing tiny flows by tinier densities.
DENSITY_FLOOR = 1.0


def default_emission_rate(speed: float | np.ndarray) -> float | np.ndarray:
    """Emission rate in g/km at a sustained speed in km/h; takes a float or an
    array of speeds and returns the same."""
    if np.any(np.asarray(speed) <= 0.0):
        raise ValueError("speed must be strictly positive")
    a, b, c = EMISSION_COEFFS
    return a + b / speed + c * speed * speed


def emission_rate_from_table(points: Sequence[tuple[float, float]]) -> RateFn:
    """Interpolating rate function from (speed km/h, rate g/km) pairs; maps a
    float or an array of speeds to the same."""
    pts = sorted((float(v), float(r)) for v, r in points)
    if len(pts) < 2:
        raise ValueError("emission table needs at least two points")
    speeds = np.array([p[0] for p in pts])
    rates = np.array([p[1] for p in pts])
    if not (np.isfinite(speeds).all() and np.isfinite(rates).all()):
        raise ValueError("emission table points must be finite")

    def rate(speed: float | np.ndarray) -> float | np.ndarray:
        return np.interp(speed, speeds, rates)

    return rate


def speed_field(trace: SimulationTrace, rho_min: float = DENSITY_FLOOR) -> np.ndarray:
    """(T, num_cells) probe speeds for every sample and cell."""
    return _speeds(trace, rho_min)[0]


def _speeds(trace: SimulationTrace, rho_min: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`speed_field` and the ``(T,)`` admitted inflow, built from the
    trace's flows a block of samples at a time: no whole-trace flows or
    limits are held, and each block's posted limits are gathered through
    the per-sample index of their stretch."""
    rho = trace.densities
    samples, cells = rho.shape
    posted_limits = trace.limit_rows[:, -cells:]  # the zone command only on a zone cell
    posted = np.searchsorted(trace.limit_steps, np.arange(samples), side="right") - 1
    field = np.empty((samples, cells))
    inflow = np.empty(samples)
    with np.errstate(divide="ignore", invalid="ignore"):
        for block, q in trace._flow_blocks(max(1, CSV_BLOCK_VALUES // (cells + 1))):
            r, limits = rho[block], posted_limits.take(posted[block], axis=0)
            ratio = np.where(r > 0.0, q[:, 1:] / np.where(r > 0.0, r, 1.0), np.inf)
            field[block] = np.where(r > rho_min, np.minimum(ratio, limits), limits)
            inflow[block] = q[:, 0]
    return field, inflow


class _Integral:
    """Integral of a rate held constant over each step, tabulated per sample."""

    def __init__(self, rate: np.ndarray, times: np.ndarray, dt: float) -> None:
        self.rate, self.times, self.dt = rate, times, dt
        self.table = np.concatenate(([0.0], np.cumsum(rate * dt)))

    def at(self, t: np.ndarray) -> np.ndarray:
        k = np.clip(np.searchsorted(self.times, t, "right") - 1, 0, len(self.rate) - 1)
        # Capping the offset at dt keeps the values non-decreasing across steps.
        return self.table[k] + self.rate[k] * np.minimum(t - self.times[k], self.dt)

    def first_reach(self, target: np.ndarray) -> np.ndarray:
        """Earliest instants the integral reaches ``target``; inf past the grid."""
        i = np.searchsorted(self.table, target)
        ok = i < self.table.shape[0]
        k = i[ok] - 1  # table[k] < target <= table[k + 1], so rate[k] > 0
        t = self.times[k] + (target[ok] - self.table[k]) / self.rate[k]
        out = np.full(target.shape, np.inf)
        out[ok] = np.minimum(t, self.times[k + 1])
        return out


@dataclass(frozen=True, eq=False)
class ProbeSet:
    """Probes as rows: ``crossings[p, c]`` is the instant (h) probe ``p``
    enters cell ``c``, the last column is the exit, and ``inf`` a boundary not
    yet reached. Iterating yields the rows."""

    crossings: np.ndarray  # (P, num_cells + 1)
    field: np.ndarray  # (T, num_cells) speeds the probes moved at, km/h
    times: np.ndarray
    lengths: np.ndarray  # km per cell

    def __len__(self) -> int:
        return self.crossings.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.crossings)

    @property
    def complete(self) -> np.ndarray:
        return np.isfinite(self.crossings[:, -1])

    def steps(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Distance (km) and time (h) probe ``i`` spends in each grid step from
        entry to exit or horizon: positions are the running sum, speeds the
        ratio."""
        times, x = self.times, self.crossings[i]
        end = min(x[-1], times[-1])
        k0, k1 = np.searchsorted(times, (x[0], end))
        # Between consecutive step instants and crossings the speed is constant.
        edges = np.unique(np.concatenate((times[k0:k1], x[x <= end], [end])))
        mid = 0.5 * (edges[:-1] + edges[1:])
        k = np.clip(np.searchsorted(times, mid, side="right") - 1, k0, k1 - 1)
        c = np.clip(np.searchsorted(x, mid, side="right") - 1, 0, len(x) - 2)
        km = np.bincount(k - k0, self.field[k, c] * np.diff(edges), k1 - k0)
        return km, np.diff(np.append(times[k0:k1], end))


def reconstruct_trajectories(
    trace: SimulationTrace,
    seed_interval: float,
    rho_min: float = DENSITY_FLOOR,
) -> ProbeSet:
    """Seed one probe at the entrance every ``seed_interval`` hours while
    demand is being admitted, and solve every probe's cell crossing times."""
    if seed_interval <= 0.0:
        raise ValueError("seed_interval must be strictly positive")
    dt, times = trace.dt, trace.times
    stride = max(1, int(round(seed_interval / dt))) if dt > 0.0 else 1
    seeds = np.arange(0, trace.num_samples - 1, stride)
    field, inflow = _speeds(trace, rho_min)
    seeds = seeds[inflow[seeds] > 0.0]
    lengths = trace.geometry.cell_lengths()
    crossings = np.full((seeds.shape[0], lengths.shape[0] + 1), np.inf)
    crossings[:, 0] = times[seeds]
    for c, length in enumerate(lengths):
        dist = _Integral(field[:-1, c], times, dt)
        live = np.flatnonzero(np.isfinite(crossings[:, c]))
        crossings[live, c + 1] = dist.first_reach(dist.at(crossings[live, c]) + length)
    return ProbeSet(crossings, field, times, lengths)


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


def avg_stops(probes: ProbeSet, v_stop: float, v_resume: float) -> float:
    """Mean number of stops per completed probe."""
    if v_stop >= v_resume:
        raise ValueError("v_stop must be below v_resume")
    done = np.flatnonzero(probes.complete)
    if not done.size:
        return float("nan")
    if probes.field.min() >= v_stop:
        # A step-averaged speed is a mean of cell speeds, so none is below v_stop.
        return 0.0
    counts = []
    for i in done:
        km, hours = probes.steps(i)
        counts.append(stop_count(km / hours, v_stop, v_resume))
    return float(np.mean(counts))


def avg_emission(probes: ProbeSet, rate_fn: RateFn) -> float:
    """Distance-weighted mean emission rate over completed probes (g/veh/km).

    Integrates rate(v) * v over each probe's time in each cell and divides by
    the distance covered; cells at zero speed cover no distance and add no
    grams. ``rate_fn`` is evaluated once per cell on the array of its speeds.
    """
    done = probes.crossings[probes.complete]
    if not done.shape[0]:
        return float("nan")
    dt = probes.times[1] - probes.times[0]
    grams = 0.0
    for c in range(probes.lengths.shape[0]):
        v = probes.field[:-1, c]
        moving = v > 0.0
        power = np.zeros_like(v)  # g/h
        power[moving] = rate_fn(v[moving]) * v[moving]
        emitted = _Integral(power, probes.times, dt)
        grams += float(np.sum(emitted.at(done[:, c + 1]) - emitted.at(done[:, c])))
    return grams / (done.shape[0] * float(np.sum(probes.lengths)))


def _window(trace: SimulationTrace, t_start: float, t_end: float) -> slice:
    """The samples with ``t_start <= t <= t_end`` (to 1e-12 h): the times
    are increasing, so the window is a slice."""
    if t_start >= t_end:
        raise ValueError("window must satisfy t_start < t_end")
    if t_start < trace.times[0] - 1e-12 or t_end > trace.times[-1] + 1e-12:
        raise ValueError("window lies outside the trace")
    lo = np.searchsorted(trace.times, t_start - 1e-12, side="left")
    hi = np.searchsorted(trace.times, t_end + 1e-12, side="right")
    return slice(lo, hi)


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
    deviation = trace.section_densities[_window(trace, t_start, t_end)] - rho_star
    deviation *= deviation  # squared in place
    return float(np.sqrt(np.mean(deviation))) / rho_star


@dataclass(frozen=True)
class MetricsReport:
    """Per-run summary of the four performance measures."""

    att_min: float  # minutes, NaN when no probe completed
    avg_stops: float  # stops per vehicle
    avg_emission_g_per_km: float  # g/veh/km
    rrmse: float  # fraction
    vehicles_counted: int  # completed probes

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


def evaluate_trace(scenario: Scenario, trace: SimulationTrace) -> MetricsReport:
    """Reconstruct probes and evaluate every performance measure with the
    scenario's metric settings (``scenario.metrics``).

    The density tracking error is the pooled per-section variant against
    ``scenario.rho_star()`` over ``scenario.metrics_window()``; it is NaN when
    the target density is zero (empty-road scenarios) or the window is
    degenerate.
    """
    config = scenario.metrics
    t_start, t_end = scenario.metrics_window()
    rho_star = scenario.rho_star()
    probes = reconstruct_trajectories(
        trace, config.seed_interval / 3600.0, config.density_floor
    )
    done = probes.crossings[probes.complete]
    transit = done[:, -1] - done[:, 0]
    att_min = 60.0 * float(np.mean(transit)) if transit.size else math.nan
    if rho_star > 0.0 and t_end > t_start:
        rrmse = rrmse_density_pooled(trace, rho_star, t_start, t_end)
    else:
        rrmse = math.nan
    return MetricsReport(
        att_min=att_min,
        avg_stops=avg_stops(probes, config.stop_speed, config.resume_speed),
        avg_emission_g_per_km=avg_emission(probes, config.rate_fn()),
        rrmse=rrmse,
        vehicles_counted=int(transit.size),
    )
