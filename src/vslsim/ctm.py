"""Multi-section cell transmission model of a freeway with a downstream bottleneck.

The modeled corridor is an optional upstream metering zone (cell 0, length
``upstream_zone_length``) followed by ``num_sections`` identical mainline
sections. One unit system is used everywhere: lengths in km, speeds in km/h,
flows in veh/h, densities in veh/km summed over lanes, times in hours.

Flux laws derive from a triangular fundamental diagram. A cell posted with
speed limit ``v`` can send at most ``min(v * rho, vsl_max_flow(v))`` and can
receive at most ``backprop_speed * (jam_density - rho)``. The most downstream
interface is additionally capped by the bottleneck discharge capacity, which
shrinks by the capacity-drop factor while the bottleneck operates above its
critical density.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

# Relative tolerance for the triangle closure checks of FundamentalDiagram.
TRIANGLE_RTOL = 1e-6


@dataclass(frozen=True)
class FundamentalDiagram:
    """Static road and flow parameters of the triangular fundamental diagram.

    Fields
    ------
    capacity : float
        Mainline capacity C of each section (veh/h).
    downstream_capacity : float
        Bottleneck discharge capacity C_d with the lane closure active but no
        congestion at the bottleneck (veh/h). Must not exceed ``capacity``.
    free_flow_speed : float
        Free flow speed (km/h).
    backprop_speed : float
        Congestion back-propagation speed governing how much a cell can
        receive (km/h).
    outflow_backprop_speed : float
        Rate at which a congested cell's discharge decays with its own
        density (km/h); models bounded acceleration out of a queue.
    jam_density : float
        Density at which a cell stops receiving (veh/km).
    outflow_jam_density : float
        Density at which a cell stops discharging (veh/km).
    capacity_drop_factor : float
        Fraction of ``downstream_capacity`` lost while the bottleneck is
        congested, in (0, 1).

    Both jam densities must close the flow-density triangle through the
    critical density: ``backprop_speed * (jam_density - critical_density)``
    and ``outflow_backprop_speed * (outflow_jam_density - critical_density)``
    must each equal ``capacity`` to within ``TRIANGLE_RTOL``.
    """

    capacity: float
    downstream_capacity: float
    free_flow_speed: float
    backprop_speed: float
    outflow_backprop_speed: float
    jam_density: float
    outflow_jam_density: float
    capacity_drop_factor: float

    def __post_init__(self) -> None:
        # Every parameter but the trailing drop factor is a positive magnitude.
        for f in fields(self)[:-1]:
            if getattr(self, f.name) <= 0.0:
                raise ValueError(f"{f.name} must be strictly positive")
        if not 0.0 < self.capacity_drop_factor < 1.0:
            raise ValueError("capacity_drop_factor must lie in (0, 1)")
        if self.downstream_capacity > self.capacity:
            raise ValueError("downstream_capacity must not exceed capacity")
        rho_c = self.capacity / self.free_flow_speed
        tol = TRIANGLE_RTOL * self.capacity
        checks = (
            ("free-flow", self.free_flow_speed * rho_c),
            ("congested", self.backprop_speed * (self.jam_density - rho_c)),
            (
                "outflow",
                self.outflow_backprop_speed * (self.outflow_jam_density - rho_c),
            ),
        )
        for branch, flow in checks:
            if abs(flow - self.capacity) > tol:
                raise ValueError(
                    f"fundamental diagram is not triangle-consistent: the "
                    f"{branch} branch peaks at {flow:.6g} veh/h, expected "
                    f"{self.capacity:.6g} veh/h"
                )

    @property
    def critical_density(self) -> float:
        """Density at which a section reaches capacity (veh/km)."""
        return self.capacity / self.free_flow_speed

    @property
    def dropped_capacity(self) -> float:
        """Bottleneck discharge while congested (veh/h)."""
        return (1.0 - self.capacity_drop_factor) * self.downstream_capacity

    @classmethod
    def from_triangle(
        cls,
        capacity: float,
        downstream_capacity: float,
        free_flow_speed: float,
        backprop_speed: float,
        outflow_backprop_speed: float,
        capacity_drop_factor: float,
    ) -> "FundamentalDiagram":
        """Build a diagram with jam densities closed from the other parameters."""
        rho_c = capacity / free_flow_speed
        return cls(
            capacity=capacity,
            downstream_capacity=downstream_capacity,
            free_flow_speed=free_flow_speed,
            backprop_speed=backprop_speed,
            outflow_backprop_speed=outflow_backprop_speed,
            jam_density=rho_c + capacity / backprop_speed,
            outflow_jam_density=rho_c + capacity / outflow_backprop_speed,
            capacity_drop_factor=capacity_drop_factor,
        )


@dataclass(frozen=True)
class NetworkGeometry:
    """Corridor layout: metering zone plus identical mainline sections."""

    num_sections: int
    section_length: float  # km
    upstream_zone_length: float = 0.0  # km, 0 removes the zone cell

    def __post_init__(self) -> None:
        if self.num_sections < 1:
            raise ValueError("num_sections must be at least 1")
        if self.section_length <= 0.0:
            raise ValueError("section_length must be strictly positive")
        if self.upstream_zone_length < 0.0:
            raise ValueError("upstream_zone_length must be non-negative")

    @property
    def has_zone(self) -> bool:
        return self.upstream_zone_length > 0.0

    @property
    def num_cells(self) -> int:
        return self.num_sections + (1 if self.has_zone else 0)

    @property
    def total_length(self) -> float:
        """Entrance-to-bottleneck distance (km)."""
        return self.upstream_zone_length + self.num_sections * self.section_length

    def cell_lengths(self) -> np.ndarray:
        lengths = [self.section_length] * self.num_sections
        if self.has_zone:
            lengths.insert(0, self.upstream_zone_length)
        return np.asarray(lengths, dtype=float)

    def cell_boundaries(self) -> np.ndarray:
        """Positions of cell interfaces from the entrance, length num_cells + 1."""
        return np.concatenate(([0.0], np.cumsum(self.cell_lengths())))


def _readonly(values, n_expected: int | None = None) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True).reshape(-1)
    if n_expected is not None and arr.shape[0] != n_expected:
        raise ValueError(f"expected {n_expected} entries, got {arr.shape[0]}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TrafficState:
    """Instantaneous densities: the metering zone plus each mainline section.

    For a geometry without a zone, ``upstream_density`` mirrors the first
    section's density so reports stay uniform.
    """

    time: float  # h
    upstream_density: float  # veh/km
    densities: np.ndarray  # veh/km, sections 1..N

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ValueError("time must be non-negative")
        if self.upstream_density < 0.0:
            raise ValueError("upstream_density must be non-negative")
        arr = _readonly(self.densities)
        if np.any(arr < 0.0):
            raise ValueError("densities must be non-negative")
        object.__setattr__(self, "densities", arr)

    @property
    def num_sections(self) -> int:
        return self.densities.shape[0]

    def all_densities(self, has_zone: bool = True) -> np.ndarray:
        """Cell densities in simulation order, zone first when present."""
        if has_zone:
            return np.concatenate(([self.upstream_density], self.densities))
        return self.densities.copy()

    @classmethod
    def uniform(cls, density: float, num_sections: int, time: float = 0.0) -> "TrafficState":
        return cls(time, density, np.full(num_sections, float(density)))


@dataclass(frozen=True)
class SpeedLimits:
    """Posted speed limits: zone command plus one limit per mainline section."""

    zone: float  # v0, km/h
    sections: np.ndarray  # km/h, sections 1..N

    def __post_init__(self) -> None:
        if self.zone <= 0.0:
            raise ValueError("zone speed limit must be strictly positive")
        arr = _readonly(self.sections)
        if np.any(arr <= 0.0):
            raise ValueError("section speed limits must be strictly positive")
        object.__setattr__(self, "sections", arr)

    @property
    def num_sections(self) -> int:
        return self.sections.shape[0]

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.zone], self.sections))

    @classmethod
    def uniform(cls, speed: float, num_sections: int) -> "SpeedLimits":
        return cls(float(speed), np.full(num_sections, float(speed)))


@dataclass(frozen=True)
class FlowVector:
    """Flows produced by one flux evaluation.

    ``inflow`` is the demand admitted into the corridor entrance;
    ``interfaces`` holds q_1 .. q_{N+1}, where q_i crosses into section i and
    q_{N+1} leaves through the bottleneck. Without a metering zone the
    admitted inflow and q_1 coincide.
    """

    inflow: float  # veh/h
    interfaces: np.ndarray  # veh/h

    def __post_init__(self) -> None:
        if self.inflow < 0.0:
            raise ValueError("inflow must be non-negative")
        arr = _readonly(self.interfaces)
        if np.any(arr < 0.0):
            raise ValueError("interface flows must be non-negative")
        object.__setattr__(self, "interfaces", arr)

    @property
    def bottleneck(self) -> float:
        """Discharge through the most downstream interface (veh/h)."""
        return float(self.interfaces[-1])


def vsl_max_flow(speed: float, fd: FundamentalDiagram) -> float:
    """Largest flow a section posted with ``speed`` can pass (veh/h).

    Geometrically this is the apex of the fundamental diagram truncated by the
    speed limit: ``speed * w * jam_density / (speed + w)``. At the free flow
    speed it recovers the capacity exactly (triangle consistency).
    """
    if speed <= 0.0:
        raise ValueError("speed must be strictly positive")
    w = fd.backprop_speed
    return speed * w * fd.jam_density / (speed + w)


def capacity_drop(
    rho_n: float,
    fd: FundamentalDiagram,
    lc_active: bool = False,
    lc_residual_drop: float = 0.0,
    downstream_capacity: float | None = None,
) -> float:
    """Active capacity-drop factor at the bottleneck.

    The drop engages only while a true bottleneck exists (effective downstream
    capacity below the mainline capacity) and the last section is above its
    critical occupancy. Lane change advisories replace the drop factor with the
    configured residual.
    """
    cap_d = fd.downstream_capacity if downstream_capacity is None else downstream_capacity
    if cap_d < fd.capacity and rho_n > cap_d / fd.free_flow_speed:
        return lc_residual_drop if lc_active else fd.capacity_drop_factor
    return 0.0


def bottleneck_outflow(
    rho_n: float,
    fd: FundamentalDiagram,
    lc_active: bool = False,
    lc_residual_drop: float = 0.0,
    downstream_capacity: float | None = None,
    speed_limit: float | None = None,
) -> float:
    """Discharge through the bottleneck interface (veh/h).

    ``min(v_N * rho_N, (1 - eps) * C_d, w_out * (jam_out - rho_N))`` where the
    drop factor ``eps`` follows :func:`capacity_drop`. ``downstream_capacity``
    overrides ``fd.downstream_capacity`` so a cleared incident can revert the
    cap to the mainline capacity.
    """
    if not 0.0 <= rho_n <= fd.outflow_jam_density:
        raise ValueError(
            f"bottleneck density {rho_n:.6g} outside [0, {fd.outflow_jam_density:.6g}]"
        )
    cap_d = fd.downstream_capacity if downstream_capacity is None else downstream_capacity
    v_n = fd.free_flow_speed if speed_limit is None else speed_limit
    eps = capacity_drop(rho_n, fd, lc_active, lc_residual_drop, cap_d)
    return min(
        v_n * rho_n,
        (1.0 - eps) * cap_d,
        fd.outflow_backprop_speed * (fd.outflow_jam_density - rho_n),
    )


def equilibrium_density(demand: float, fd: FundamentalDiagram) -> float:
    """Uniform section density the controlled corridor settles to (veh/km)."""
    return min(demand, fd.downstream_capacity) / fd.free_flow_speed


def interface_flows(
    state: TrafficState,
    limits: SpeedLimits,
    fd: FundamentalDiagram,
    demand: float,
    has_zone: bool = True,
    lc_active: bool = False,
    lc_residual_drop: float = 0.0,
    downstream_capacity: float | None = None,
) -> FlowVector:
    """Evaluate every interface flow for one state under posted speed limits.

    Each interior interface takes the minimum of the sender's demand
    (``v * rho`` capped by the sender's and receiver's speed-limited maximum
    flows) and the receiver's supply ``w * (jam_density - rho)``. The entrance
    admits ``min(demand, vsl_max_flow(v0), supply of the first cell)`` and the
    bottleneck interface follows :func:`bottleneck_outflow`.
    """
    if demand < 0.0:
        raise ValueError("demand must be non-negative")
    rho = state.densities
    v = limits.sections
    n = rho.shape[0]
    if v.shape[0] != n:
        raise ValueError(
            f"state has {n} sections but speed limits cover {v.shape[0]}"
        )
    w = fd.backprop_speed
    rho_j = fd.jam_density
    zone_cap = vsl_max_flow(limits.zone, fd)
    section_cap = [vsl_max_flow(float(vi), fd) for vi in v]

    interfaces = np.empty(n + 1)
    supply_1 = max(0.0, w * (rho_j - rho[0]))
    if has_zone:
        rho0 = state.upstream_density
        inflow = min(demand, zone_cap, max(0.0, w * (rho_j - rho0)))
        interfaces[0] = min(limits.zone * rho0, zone_cap, section_cap[0], supply_1)
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
    interfaces[n] = bottleneck_outflow(
        float(rho[n - 1]),
        fd,
        lc_active=lc_active,
        lc_residual_drop=lc_residual_drop,
        downstream_capacity=downstream_capacity,
        speed_limit=float(v[n - 1]),
    )
    return FlowVector(inflow=inflow, interfaces=interfaces)
