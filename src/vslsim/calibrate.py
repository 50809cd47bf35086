"""Fit triangular fundamental-diagram parameters from flow-density
observations of the most downstream section.

The no-incident observations give the mainline triangle: free flow speed as a
least-squares line through the origin, capacity as a high quantile of flows,
congestion wave speed from the congested branch, jam densities closed through
the triangle rather than fit independently. Observations collected with a
lane closure active give the bottleneck side: the recovered and dropped
discharge levels, hence the capacity-drop factor, and where the data allow it
the outflow wave speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ctm import FundamentalDiagram

MIN_BASE_OBSERVATIONS = 30
# Capacities are this quantile of the observed flows, robust to a few outliers.
CAPACITY_QUANTILE = 0.99
# Most rounds of the free/congested split before the fit gives up converging.
MAX_ALTERNATIONS = 5
# Branch-split comparisons use a relative tolerance so observations sitting
# exactly at the critical occupancy stay on the free-flow side even when the
# fitted speed is off by an ulp.
SPLIT_RTOL = 1e-9
# Fraction below the dropped-discharge plateau where points are attributed to
# the outflow-limited branch rather than the plateau itself.
OUTFLOW_BRANCH_MARGIN = 0.05
MIN_OUTFLOW_POINTS = 10


class CalibrationError(ValueError):
    """Observations insufficient or inconsistent for a triangle fit."""


@dataclass(frozen=True)
class FdObservation:
    """One flow-density measurement; ``incident`` marks lane-closure periods."""

    density: float  # veh/km
    flow: float  # veh/h
    incident: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.density < np.inf and 0.0 <= self.flow < np.inf):
            raise ValueError("density and flow must be non-negative")


@dataclass
class FitDiagnostics:
    """Everything worth knowing about how the fit went."""

    fitted_free_flow_speed: float = float("nan")
    pinned_free_flow_speed: float | None = None
    alternations: int = 0
    split_converged: bool = True
    split_density: float = float("nan")
    n_free: int = 0
    n_congested: int = 0
    n_incident_free: int = 0
    n_incident_congested: int = 0
    n_outflow_branch: int = 0
    outflow_wave_fallback: bool = False
    notes: list[str] = field(default_factory=list)


def free_flow_slope(densities: Sequence[float], flows: Sequence[float]) -> float:
    """Least-squares slope of flow on density through the origin (km/h)."""
    rho = np.asarray(densities, dtype=float)
    q = np.asarray(flows, dtype=float)
    denom = float(rho @ rho)
    if denom == 0.0:
        raise CalibrationError("free-flow fit needs at least one nonzero density")
    return float(rho @ q) / denom


def _affine_fit(rho: np.ndarray, q: np.ndarray) -> float:
    """Slope of the ordinary least-squares line q = intercept + slope * rho."""
    if rho.shape[0] < 2 or float(np.ptp(rho)) == 0.0:
        raise CalibrationError("affine fit needs at least two distinct densities")
    design = np.column_stack((np.ones_like(rho), rho))
    coeffs, *_ = np.linalg.lstsq(design, q, rcond=None)
    return float(coeffs[1])


def fit_fundamental_diagram(
    observations: Sequence[FdObservation],
    pinned_free_flow_speed: float | None = None,
) -> tuple[FundamentalDiagram, FitDiagnostics]:
    """Identify every fundamental-diagram parameter from observations.

    The free/congested split starts at the density of the highest-flow
    no-incident observation and alternates with refits until the implied
    critical density stops moving (at most ``MAX_ALTERNATIONS`` rounds).
    ``pinned_free_flow_speed`` overrides the fitted slope in the returned
    diagram; the fitted value stays available in the diagnostics.
    """
    if pinned_free_flow_speed is not None and not 0.0 < pinned_free_flow_speed < np.inf:
        raise CalibrationError(
            f"pinned free-flow speed {pinned_free_flow_speed!r} is not finite and positive"
        )
    diag = FitDiagnostics(pinned_free_flow_speed=pinned_free_flow_speed)
    base = [o for o in observations if not o.incident]
    incident = [o for o in observations if o.incident]
    if len(base) < MIN_BASE_OBSERVATIONS:
        raise CalibrationError(
            f"need at least {MIN_BASE_OBSERVATIONS} no-incident observations, "
            f"got {len(base)}"
        )
    rho = np.array([o.density for o in base])
    q = np.array([o.flow for o in base])
    capacity = float(np.quantile(q, CAPACITY_QUANTILE))
    if capacity <= 0.0:
        raise CalibrationError("no-incident flows are all zero")

    split = float(rho[int(np.argmax(q))])
    v_f = float("nan")
    w = float("nan")
    for rounds in range(1, MAX_ALTERNATIONS + 1):
        free = rho <= split * (1.0 + SPLIT_RTOL)
        congested = ~free
        if not np.any(free) or not np.any(congested):
            raise CalibrationError(
                "no-incident observations cover a single branch; cannot fit "
                "the congestion wave speed"
            )
        fitted_vf = free_flow_slope(rho[free], q[free])
        if fitted_vf <= 0.0:
            raise CalibrationError("free-flow fit produced a non-positive speed")
        v_f = pinned_free_flow_speed if pinned_free_flow_speed is not None else fitted_vf
        slope = _affine_fit(rho[congested], q[congested])
        if slope >= 0.0:
            raise CalibrationError(
                f"congested branch slope {slope:.4g} is non-negative; "
                "observations do not show a congested branch"
            )
        w = -slope
        diag.fitted_free_flow_speed = fitted_vf
        diag.alternations = rounds
        new_split = capacity / v_f
        if abs(new_split - split) <= 1e-9:
            split = new_split
            break
        split = new_split
    else:
        diag.split_converged = False
        diag.notes.append("branch split did not converge; using the last split")
    diag.split_density = split
    free = rho <= split * (1.0 + SPLIT_RTOL)
    diag.n_free = int(np.sum(free))
    diag.n_congested = int(np.sum(~free))

    if not incident:
        raise CalibrationError(
            "no incident observations; bottleneck capacity and the capacity "
            "drop cannot be identified"
        )
    rho_i = np.array([o.density for o in incident])
    q_i = np.array([o.flow for o in incident])
    # The recovered-discharge threshold depends on the capacity being
    # estimated, so bootstrap it from all incident flows and refine once.
    cap_d = min(float(np.quantile(q_i, CAPACITY_QUANTILE)), capacity)
    for _ in range(2):
        threshold = cap_d / v_f
        below = rho_i <= threshold * (1.0 + SPLIT_RTOL)
        if not np.any(below):
            raise CalibrationError(
                "no incident observations at subcritical densities; cannot "
                "identify the recovered bottleneck capacity"
            )
        cap_d = min(float(np.quantile(q_i[below], CAPACITY_QUANTILE)), capacity)
    threshold = cap_d / v_f
    below = rho_i <= threshold * (1.0 + SPLIT_RTOL)
    above = ~below
    diag.n_incident_free = int(np.sum(below))
    diag.n_incident_congested = int(np.sum(above))
    if not np.any(above):
        raise CalibrationError(
            "no incident observations at supercritical densities; cannot "
            "identify the capacity drop"
        )
    dropped = float(np.quantile(q_i[above], CAPACITY_QUANTILE))
    drop_factor = 1.0 - dropped / cap_d
    if not 0.0 < drop_factor < 1.0:
        raise CalibrationError(
            f"implied capacity-drop factor {drop_factor:.4g} outside (0, 1)"
        )

    outflow_pts = above & (q_i < (1.0 - OUTFLOW_BRANCH_MARGIN) * dropped)
    diag.n_outflow_branch = int(np.sum(outflow_pts))
    w_out = w / 2.0
    if diag.n_outflow_branch >= MIN_OUTFLOW_POINTS:
        slope = _affine_fit(rho_i[outflow_pts], q_i[outflow_pts])
        if slope < 0.0:
            w_out = -slope
        else:
            diag.outflow_wave_fallback = True
            diag.notes.append("outflow branch slope non-negative; using w / 2")
    else:
        diag.outflow_wave_fallback = True
        diag.notes.append(
            "too few deep-congestion incident observations; using w / 2"
        )

    fd = FundamentalDiagram.from_triangle(
        capacity=capacity,
        downstream_capacity=cap_d,
        free_flow_speed=v_f,
        backprop_speed=w,
        outflow_backprop_speed=w_out,
        capacity_drop_factor=drop_factor,
    )
    return fd, diag
