"""Rule-based variable speed limit law, switching schedule, and lane change
advisory model.

The zone command is chosen so the speed-limited entrance admits exactly the
flow the bottleneck can pass: the dropped discharge while the bottleneck is
congested, the recovered discharge after the queue clears. All mainline
sections stay posted at free flow speed to avoid creating speed differentials
downstream of the zone. Deployments derate the theoretical commands through a
single factor plus optional quantization to a sign step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .bounds import BoundInputs, time_to_clear
from .ctm import FundamentalDiagram, NetworkGeometry, SpeedLimits, TrafficState

if TYPE_CHECKING:
    from .simulate import IncidentSchedule


@dataclass(frozen=True)
class VslRuleConfig:
    """Deployment knobs of the rule-based speed limit law.

    ``derating`` scales the theoretical zone commands down, acknowledging that
    the exact flux-matching speeds leave no margin for parameter error.
    ``switch_margin`` (h) pads the estimated queue-clearing time before the
    command steps up to the recovered-capacity value. ``quantize_step`` (km/h)
    rounds commands down to a sign grid; 0 disables quantization.
    """

    derating: float = 0.785
    switch_margin: float = 0.1
    quantize_step: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.derating <= 1.0:
            raise ValueError("derating must lie in (0, 1]")
        if not 0.0 <= self.switch_margin < math.inf:
            raise ValueError("switch_margin must be non-negative")
        if not 0.0 <= self.quantize_step < math.inf:
            raise ValueError("quantize_step must be non-negative")


@dataclass(frozen=True)
class LcConfig:
    """Lane change advisory settings upstream of the closure.

    ``advisory_distance_per_lane`` (m) scales with the number of closed lanes
    to give the advisory distance. ``residual_drop`` is the capacity-drop
    factor left while advisories are active; 0 means full mitigation.
    """

    advisory_distance_per_lane: float = 800.0
    residual_drop: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.advisory_distance_per_lane < math.inf:
            raise ValueError("advisory_distance_per_lane must be strictly positive")
        if not 0.0 <= self.residual_drop < 1.0:
            raise ValueError("residual_drop must lie in [0, 1)")


def lc_distance(lanes_closed: int, cfg: LcConfig) -> float:
    """Advisory distance upstream of the closure (m): per-lane distance times
    the number of closed lanes."""
    if lanes_closed < 0:
        raise ValueError("lanes_closed must be non-negative")
    return cfg.advisory_distance_per_lane * lanes_closed


def rule_commands(fd: FundamentalDiagram) -> tuple[float, float]:
    """Theoretical zone commands (congested, cleared) in km/h.

    Each command makes the speed-limited maximum entrance flow equal the
    corresponding bottleneck discharge: ``vsl_max_flow(congested)`` equals the
    dropped capacity and ``vsl_max_flow(cleared)`` equals the full downstream
    capacity.
    """
    w = fd.backprop_speed
    wrj = w * fd.jam_density
    if wrj <= fd.downstream_capacity:
        raise ValueError(
            "malformed fundamental diagram: backprop_speed * jam_density must "
            "exceed downstream_capacity"
        )
    dropped = fd.dropped_capacity
    congested = w * dropped / (wrj - dropped)
    cleared = w * fd.downstream_capacity / (wrj - fd.downstream_capacity)
    return congested, cleared


def v0_command(demand: float, rho_n: float, fd: FundamentalDiagram) -> float:
    """Zone speed command for the measured bottleneck density (km/h).

    Three cases: with demand above the downstream capacity and the bottleneck
    uncongested, match the recovered discharge; with demand at least the
    dropped capacity and the bottleneck congested, match the dropped
    discharge; otherwise no metering is needed and the command is the free
    flow speed.
    """
    if demand < 0.0:
        raise ValueError("demand must be non-negative")
    if not 0.0 <= rho_n <= fd.outflow_jam_density:
        raise ValueError(
            f"bottleneck density {rho_n:.6g} outside [0, {fd.outflow_jam_density:.6g}]"
        )
    congested, cleared = rule_commands(fd)
    threshold = fd.downstream_capacity / fd.free_flow_speed
    if demand > fd.downstream_capacity and rho_n <= threshold:
        return cleared
    if demand >= fd.dropped_capacity and rho_n > threshold:
        return congested
    return fd.free_flow_speed


def derated_command(command: float, cfg: VslRuleConfig, fd: FundamentalDiagram) -> float:
    """Apply derating and downward quantization to a restrictive command.

    A free-flow command passes through untouched: derating expresses caution
    about an active restriction, not about the absence of control.
    """
    if command >= fd.free_flow_speed:
        return fd.free_flow_speed
    v = cfg.derating * command
    if cfg.quantize_step > 0.0:
        v = math.floor(v / cfg.quantize_step) * cfg.quantize_step
        v = max(v, cfg.quantize_step)
    return min(v, fd.free_flow_speed)


def switch_time(
    incident: "IncidentSchedule",
    cfg: VslRuleConfig,
    fd: FundamentalDiagram,
    geometry: NetworkGeometry,
    demand: float,
) -> float:
    """Instant the schedule steps the zone command up to the cleared value (h).

    Estimated queue-clearing time for a corridor in free flow at the incident
    instant, plus the configured margin. A switch landing at or beyond the
    incident end is clamped there and reported.
    """
    congested, _ = rule_commands(fd)
    inputs = BoundInputs.free_flow(
        fd, geometry, derated_command(congested, cfg, fd), demand
    )
    t_s = incident.start + time_to_clear(inputs, geometry.upstream_zone_length)
    t_s += cfg.switch_margin
    if t_s >= incident.end:
        warnings.warn(
            f"switch time {t_s:.4g} h reaches the incident end "
            f"{incident.end:.4g} h; clamping",
            stacklevel=2,
        )
        t_s = incident.end
    return t_s


Controller = Callable[[TrafficState, float], SpeedLimits]


class NoControl:
    """Baseline: every sign posts the free flow speed."""

    def __init__(self, fd: FundamentalDiagram, geometry: NetworkGeometry) -> None:
        self._limits = SpeedLimits.uniform(fd.free_flow_speed, geometry.num_sections)

    def __call__(self, state: TrafficState, t: float) -> SpeedLimits:
        return self._limits


class RuleBasedSchedule:
    """Time-triggered rule: phase commands precomputed from the incident
    schedule, ignoring measured state entirely."""

    def __init__(
        self,
        fd: FundamentalDiagram,
        geometry: NetworkGeometry,
        incident: "IncidentSchedule",
        cfg: VslRuleConfig,
        demand: float,
    ) -> None:
        congested, cleared = rule_commands(fd)
        self.congested_command = derated_command(congested, cfg, fd)
        self.cleared_command = derated_command(cleared, cfg, fd)
        self.switch_time = switch_time(incident, cfg, fd, geometry, demand)
        self._incident = incident
        self._fd = fd
        self._free = SpeedLimits.uniform(fd.free_flow_speed, geometry.num_sections)
        self._sections = [fd.free_flow_speed] * geometry.num_sections

    def __call__(self, state: TrafficState, t: float) -> SpeedLimits:
        if self._incident.start <= t < self.switch_time:
            return SpeedLimits(self.congested_command, self._sections)
        if self.switch_time <= t < self._incident.end:
            return SpeedLimits(self.cleared_command, self._sections)
        return self._free


class RuleBasedReactive:
    """Measurement-driven rule: re-evaluates the command law on the live
    bottleneck density at every controller invocation.

    Exists to study sensitivity to density measurements; outside the incident
    window it posts free flow speed since no bottleneck is active.
    """

    def __init__(
        self,
        fd: FundamentalDiagram,
        geometry: NetworkGeometry,
        incident: "IncidentSchedule",
        cfg: VslRuleConfig,
        demand_at: Callable[[float], float],
    ) -> None:
        self._fd = fd
        self._incident = incident
        self._cfg = cfg
        self._demand_at = demand_at
        self._sections = [fd.free_flow_speed] * geometry.num_sections
        self._free = SpeedLimits.uniform(fd.free_flow_speed, geometry.num_sections)

    def __call__(self, state: TrafficState, t: float) -> SpeedLimits:
        if not self._incident.start <= t < self._incident.end:
            return self._free
        command = v0_command(self._demand_at(t), float(state.densities[-1]), self._fd)
        return SpeedLimits(derated_command(command, self._cfg, self._fd), self._sections)
