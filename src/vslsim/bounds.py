"""Analytical sizing of the upstream speed-limited zone.

When the zone command slows entering traffic, a low-density gap opens between
the vehicles already on the mainline and the newly metered platoon. The queue
at the bottleneck is absorbed without fresh shockwaves exactly when it clears
before the first metered vehicle arrives, which translates into a lower bound
on the zone length. These are closed-form expressions over measured densities
at the moment the incident starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctm import FundamentalDiagram


class InfeasibleSpeedError(ValueError):
    """Zone command too fast for the measured entrance occupancy.

    Raised when ``zone_limit * upstream_density`` is at least the congested
    bottleneck discharge: the metered inflow then matches or outruns the queue
    discharge and no finite zone length can absorb the congestion.
    """


class BoundInputError(ValueError):
    """A bound input outside its domain; ``field`` names the input."""

    def __init__(self, field: str, problem: str) -> None:
        super().__init__(f"{field} {problem}")
        self.field = field


@dataclass(frozen=True)
class BoundInputs:
    """Snapshot needed by the zone-length bound: parameters, command, densities."""

    fd: FundamentalDiagram
    num_sections: int
    section_length: float  # km
    zone_limit: float  # v0, km/h
    upstream_density: float  # veh/km at the incident instant
    densities: np.ndarray  # veh/km per section at the incident instant

    def __post_init__(self) -> None:
        # Each range test is written so that NaN fails it too.
        if not 1 <= self.num_sections < np.inf:
            raise ValueError("num_sections must be at least 1")
        if not 0.0 < self.section_length < np.inf:
            raise ValueError("section_length must be strictly positive")
        if not 0.0 < self.zone_limit <= self.fd.free_flow_speed:
            raise BoundInputError("zone_limit", "must lie in (0, free_flow_speed]")
        arr = np.array(self.densities, dtype=float, copy=True).reshape(-1)
        if arr.shape[0] != self.num_sections:
            raise BoundInputError(
                "densities",
                f"must hold {self.num_sections} section densities, got {arr.shape[0]}",
            )
        hi = self.fd.outflow_jam_density
        if not np.all((arr >= 0.0) & (arr <= hi)):
            raise BoundInputError("densities", f"must lie in [0, {hi:.6g}]")
        if not 0.0 <= self.upstream_density <= hi:
            raise BoundInputError("upstream_density", f"must lie in [0, {hi:.6g}]")
        arr.flags.writeable = False
        object.__setattr__(self, "densities", arr)


def v0_feasible(inputs: BoundInputs) -> bool:
    """True when the zone command meters less than the congested discharge.

    The strict condition ``zone_limit < dropped_capacity / upstream_density``;
    vacuously true at zero entrance density.
    """
    if inputs.upstream_density == 0.0:
        return True
    return inputs.zone_limit < inputs.fd.dropped_capacity / inputs.upstream_density


def l0_lower_bound_raw(inputs: BoundInputs) -> float:
    """Signed zone-length bound (km); negative means any zone length works."""
    if not v0_feasible(inputs):
        raise InfeasibleSpeedError(
            f"zone command {inputs.zone_limit:.6g} km/h meters "
            f"{inputs.zone_limit * inputs.upstream_density:.6g} veh/h into the "
            f"corridor, not below the congested discharge "
            f"{inputs.fd.dropped_capacity:.6g} veh/h; no finite zone length works"
        )
    fd = inputs.fd
    v_f = fd.free_flow_speed
    rate = fd.dropped_capacity
    stored_flow = v_f * float(np.sum(inputs.densities)) - rate * inputs.num_sections
    numerator = stored_flow * inputs.zone_limit * inputs.section_length
    denominator = (rate - inputs.zone_limit * inputs.upstream_density) * v_f
    return numerator / denominator


def l0_lower_bound(inputs: BoundInputs) -> float:
    """Minimum upstream zone length that absorbs the bottleneck queue (km).

    Negative raw values are clamped to zero: the mainline then holds fewer
    vehicles than the bottleneck discharges before the first metered vehicle
    can arrive, so no zone is needed. Use :func:`l0_lower_bound_raw` for the
    signed value.
    """
    return max(0.0, l0_lower_bound_raw(inputs))


def _check_zone_length(zone_length: float) -> None:
    if not 0.0 <= zone_length < np.inf:  # NaN fails it too
        raise BoundInputError("zone_length", "must be finite and non-negative")


def time_to_clear(inputs: BoundInputs, zone_length: float) -> float:
    """Time for the bottleneck to discharge every vehicle stored at the
    incident instant (h), assuming congested discharge throughout."""
    _check_zone_length(zone_length)
    stored = zone_length * inputs.upstream_density + inputs.section_length * float(
        np.sum(inputs.densities)
    )
    return stored / inputs.fd.dropped_capacity


def arrival_time(inputs: BoundInputs, zone_length: float) -> float:
    """Transit time of the first metered vehicle to the bottleneck (h):
    the zone at the zone command, the mainline at free flow speed."""
    _check_zone_length(zone_length)
    mainline = inputs.num_sections * inputs.section_length
    return zone_length / inputs.zone_limit + mainline / inputs.fd.free_flow_speed


@dataclass(frozen=True)
class ChasingVerdict:
    """Outcome of the queue-versus-platoon race for a candidate zone length."""

    absorbed: bool
    time_to_clear: float  # h
    arrival_time: float  # h

    @property
    def label(self) -> str:
        return "absorbed" if self.absorbed else "shockwave_risk"


def chasing_verdict(inputs: BoundInputs, zone_length: float) -> ChasingVerdict:
    """Absorbed exactly when the queue clears strictly before the first
    metered vehicle reaches the bottleneck."""
    t_b = time_to_clear(inputs, zone_length)
    t_y = arrival_time(inputs, zone_length)
    return ChasingVerdict(absorbed=t_b < t_y, time_to_clear=t_b, arrival_time=t_y)


@dataclass(frozen=True)
class ZoneBoundReport(ChasingVerdict):
    """The race at one candidate zone length, plus the zone-length bound.

    ``feasible`` is always true: ``zone_bound_report`` computes the raw bound
    first, which raises ``InfeasibleSpeedError`` for an infeasible command, so
    no report is built for one.
    """

    zone_length: float  # km, the evaluated candidate
    lower_bound_raw: float  # km, signed

    feasible = True

    @property
    def lower_bound(self) -> float:
        """Zone-length bound clamped at zero (km)."""
        return max(0.0, self.lower_bound_raw)

    @property
    def vacuous(self) -> bool:
        """True when the raw bound is negative: any zone length works."""
        return self.lower_bound_raw < 0.0


def zone_bound_report(inputs: BoundInputs, zone_length: float) -> ZoneBoundReport:
    """Bundle bound, clearing time, arrival time, and verdict for reporting; a
    time past the float range, where the race is undecided, is a BoundInputError."""
    raw = l0_lower_bound_raw(inputs)
    race = chasing_verdict(inputs, zone_length)
    if not np.isfinite(race.time_to_clear):
        raise BoundInputError("zone_length", "gives a clearing time past the float range")
    if not np.isfinite(race.arrival_time):
        raise BoundInputError("zone_limit", "gives an arrival time past the float range")
    return ZoneBoundReport(**vars(race), zone_length=zone_length, lower_bound_raw=raw)
