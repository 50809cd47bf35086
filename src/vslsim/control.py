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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .ctm import FundamentalDiagram

if TYPE_CHECKING:
    from .scenario import Scenario


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

    ``advisory_distance_per_lane`` (m) times the closed lanes gives the advisory
    distance, which only labels the advisory event. Advisories act on traffic
    only through ``residual_drop``, the closure drop of ``bottleneck_operands``
    that replaces the diagram's capacity-drop factor; 0 means full mitigation.
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
        steps = v / cfg.quantize_step
        if steps < math.inf:  # a grid finer than floats reach leaves v as it is
            v = math.floor(steps) * cfg.quantize_step
        v = max(v, cfg.quantize_step)
    return min(v, fd.free_flow_speed)


# ``controller(cells, t) -> limits``; the contract is in :func:`vslsim.simulate.run_batch`.
Controller = Callable[[np.ndarray, float], np.ndarray]


def _require_incident(scenario: "Scenario") -> None:
    if scenario.incident is None:
        raise ValueError("rule-based control needs an incident schedule")


def _posted(zone: float, s: "Scenario") -> np.ndarray:
    """Read-only limits row: ``zone`` at the zone, free flow on every section."""
    row = np.array([zone] + [s.fd.free_flow_speed] * s.geometry.num_sections)
    row.flags.writeable = False
    return row


class NoControl:
    """Baseline: every sign posts the free flow speed."""

    def __init__(self, scenario: "Scenario") -> None:
        self._free = _posted(scenario.fd.free_flow_speed, scenario)

    def __call__(self, cells: np.ndarray, t: float) -> np.ndarray:
        return self._free


class RuleBasedSchedule:
    """Time-triggered rule: the scenario's phase-1 command from the incident
    start until ``Scenario.switch_time()``, the cleared command from then until
    the incident end, ignoring measured state entirely."""

    def __init__(self, scenario: "Scenario") -> None:
        _require_incident(scenario)
        fd = scenario.fd
        _, cleared = rule_commands(fd)
        self.congested_command = scenario.phase1_zone_limit()
        self.cleared_command = derated_command(cleared, scenario.vsl, fd)
        self.switch_time = scenario.switch_time()
        self._incident = scenario.incident
        self._congested = _posted(self.congested_command, scenario)
        self._cleared = _posted(self.cleared_command, scenario)
        self._free = _posted(fd.free_flow_speed, scenario)

    def __call__(self, cells: np.ndarray, t: float) -> np.ndarray:
        if self._incident.start <= t < self.switch_time:
            return self._congested
        if self.switch_time <= t < self._incident.end:
            return self._cleared
        return self._free


class RuleBasedReactive:
    """Measurement-driven rule: re-evaluates the command law on the live
    bottleneck (last cell) density at every controller invocation.

    Exists to study sensitivity to density measurements; outside the incident
    window it posts free flow speed since no bottleneck is active.
    """

    def __init__(self, scenario: "Scenario") -> None:
        _require_incident(scenario)
        self._scenario = scenario
        fd = scenario.fd
        self._rows = {  # the posted row of each of the law's three commands
            v: _posted(derated_command(v, scenario.vsl, fd), scenario)
            for v in (*rule_commands(fd), fd.free_flow_speed)
        }

    def __call__(self, cells: np.ndarray, t: float) -> np.ndarray:
        s = self._scenario
        command = s.fd.free_flow_speed
        if s.incident.active(t):
            command = v0_command(s.demand.at(t), float(cells[-1]), s.fd)
        return self._rows[command]


# Controller kind named by ``Scenario.controller`` -> class built from the scenario.
CONTROLLERS: dict[str, Callable[["Scenario"], Controller]] = {
    "no_control": NoControl,
    "rule_based": RuleBasedSchedule,
    "rule_based_reactive": RuleBasedReactive,
}
