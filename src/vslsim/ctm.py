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

The law is written once, over the last (cell) axis, in :func:`flux_law` and
:func:`update_law`, on the views of a flow row (:func:`flow_row`), the
bottleneck's operands (:func:`bottleneck_operands`) and the diagram's constants
as 0-d arrays (:func:`law_constants`), for a state ``(C,)``, a batch ``(B, C)``
or a history ``(T, C)`` alike. One state takes its bottleneck interface on
Python floats, with a NaN-propagating minimum, which is cheaper there than 0-d
arithmetic and gives the same bits.
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
        # Every parameter but the trailing drop factor is a finite positive
        # magnitude; each range test is written so that NaN fails it too.
        for f in fields(self)[:-1]:
            if not 0.0 < getattr(self, f.name) < np.inf:
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
            ("outflow", self.outflow_backprop_speed * (self.outflow_jam_density - rho_c)),
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
        if not 1 <= self.num_sections < np.inf:
            raise ValueError("num_sections must be at least 1")
        if not 0.0 < self.section_length < np.inf:
            raise ValueError("section_length must be strictly positive")
        if not 0.0 <= self.upstream_zone_length < np.inf:
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


def vsl_max_flow(speed, fd: FundamentalDiagram):
    """Largest flow a section posted with ``speed`` can pass (veh/h).

    Geometrically this is the apex of the fundamental diagram truncated by the
    speed limit: ``speed * w * jam_density / (speed + w)``. At the free flow
    speed it recovers the capacity exactly (triangle consistency). A float
    gives a float, an array of speeds the array of their flows.
    """
    speed = np.asarray(speed, dtype=float)
    if not np.all((speed > 0.0) & (speed < np.inf)):
        raise ValueError("speed must be strictly positive")
    w = fd.backprop_speed
    flow = speed * w * fd.jam_density / (speed + w)
    return float(flow) if flow.ndim == 0 else flow


def speed_caps(v, n_cells: int, fd: FundamentalDiagram) -> np.ndarray:
    """Speed-limited capacity of interfaces 0 .. C-1 (veh/h), over the last axis.

    ``v`` holds posted limits ``[zone, section 1 .. N]``. Each interface
    passes at most the smaller :func:`vsl_max_flow` of the limit posted
    upstream of it (the zone command at the entrance) and of the cell it
    feeds. Without a zone cell (C = N) the zone command caps the entrance
    only.
    """
    cap = vsl_max_flow(v, fd)
    cell = cap[..., -n_cells:]
    upstream = np.concatenate((cap[..., :1], cell[..., :-1]), axis=-1)
    return np.minimum(upstream, cell)


def _minimum(a, b):
    """``np.minimum`` of two Python floats: ``a`` when it is the smaller or
    NaN, else ``b`` (so NaN propagates from either side, and of two zeros
    the second is kept, as ``np.minimum`` does)."""
    return a if a < b or a != a else b


def law_constants(fd: FundamentalDiagram) -> tuple:
    """:func:`flux_law`'s constants, built once per run or pass: the jam density, backprop
    speed, 0.0 and outflow jam density and backprop speed as 0-d float64 arrays (a
    ufunc takes them faster than Python floats, to the same bits), then the last two as floats."""
    out = (fd.outflow_jam_density, fd.outflow_backprop_speed)
    return (*map(np.array, (fd.jam_density, fd.backprop_speed, 0.0, *out)), *out)


def bottleneck_operands(fd: FundamentalDiagram, active, closure_drop) -> tuple:
    """The bottleneck's cap ``cap_d``, dropped cap ``(1 - drop) * cap_d`` and drop
    threshold ``cap_d / free_flow_speed`` (elementwise). ``cap_d`` is the downstream
    capacity while the closure is ``active``, the mainline capacity otherwise. The
    drop is ``closure_drop`` (the diagram's factor, or the advisories' residual
    drop) only at a true bottleneck, ``cap_d`` below the mainline capacity, and 0.0
    elsewhere. With no drop engaged (each 0.0 or -0.0: no closure, a closure at
    the mainline capacity, or a drop of 0) the dropped cap is ``cap_d`` itself,
    which ``(1 - 0.0) * cap_d`` equals, and the threshold inf."""
    cap_d = np.where(active, fd.downstream_capacity, fd.capacity)
    drop = np.where(cap_d < fd.capacity, closure_drop, 0.0)
    if not drop.any():
        return cap_d, cap_d, np.float64(np.inf)
    return cap_d, (1.0 - drop) * cap_d, cap_d / fd.free_flow_speed


def flow_row(q, rho) -> tuple:
    """The views :func:`flux_law` and :func:`update_law` run on, for flows ``q``
    ``(..., C + 1)`` of densities ``rho`` ``(..., C)``: ``rho``, ``q``, the
    senders' ``q[..., 1:]``, the heads ``q[..., :C]``, the entrance ``q[..., 0]``,
    the bottleneck ``q[..., -1]`` and its density ``rho[..., -1]``."""
    n = rho.shape[-1]
    return rho, q, q[..., 1:], q[..., :n], q[..., 0], q[..., -1], rho[..., -1]


def flux_law(row, v_cells, cap, demand, bottleneck, constants) -> np.ndarray:
    """Every cell-boundary flow ``q_0 .. q_C`` (veh/h) of the :func:`flow_row`
    ``row`` into its ``q``, which it returns. ``v_cells`` holds the limits on the
    ``C`` cells (``v[..., -C:]`` of ``[zone, section 1 .. N]``), ``cap`` their
    :func:`speed_caps`; ``demand`` and the :func:`bottleneck_operands` are
    scalars or ``(...)`` arrays. The entrance admits the demand and each interior
    interface the sender's ``v * rho``, both capped by the speed cap and by the
    receiving cell's supply ``w * (jam_density - rho)`` (at least 0). The last
    discharges ``min(v_N * rho_N, cap_N, w_out * (jam_out - rho_N))``, ``cap_N``
    the dropped cap while ``rho_N`` exceeds the threshold and ``cap_d`` else; where
    the dropped cap is ``cap_d`` itself (no drop engaged), an array tail takes
    ``cap_d`` without selecting, two passes fewer and the same bits.
    Each array pass makes at most one temporary and takes no Python float."""
    rho, q, sent, head, q_in, q_out, rho_out = row
    (cap_d, dropped, threshold), (jam, w, zero, jam_out, w_out, jam_f, w_f) = bottleneck, constants
    q_in[...] = demand
    np.multiply(v_cells, rho, out=sent)  # v * rho sent by each cell
    np.minimum(head, cap, out=head)
    supply = np.subtract(jam, rho)
    supply *= w
    np.maximum(supply, zero, out=supply)
    np.minimum(head, supply, out=head)
    # The drop acts only above the bottleneck's critical density (strictly).
    if rho.ndim == 1:  # Python floats: cheaper than 0-d arithmetic, the same bits
        rho_n = rho.item(-1)
        cap_n = dropped if rho_n > threshold else cap_d
        q[-1] = _minimum(_minimum(q.item(-1), cap_n), w_f * (jam_f - rho_n))
    else:  # four passes, six with a drop engaged
        cap_n = cap_d if dropped is cap_d else np.where(rho_out > threshold, dropped, cap_d)
        np.minimum(q_out, cap_n, out=q_out)
        outflow = np.subtract(jam_out, rho_out)
        outflow *= w_out
        np.minimum(q_out, outflow, out=q_out)
    return q


def update_law(row, dt_over_length, out=None) -> np.ndarray:
    """Densities one step on, ``rho_c + dt / L_c * (q_c - q_{c+1})``, over the
    last axis of the :func:`flow_row` ``row``; ``out``, when given, receives
    them. The change is one temporary, scaled in place."""
    rho, _, sent, head, _, _, _ = row
    change = np.subtract(head, sent)
    change *= dt_over_length
    return np.add(rho, change, out=out)


def equilibrium_density(demand: float, fd: FundamentalDiagram) -> float:
    """Uniform section density the controlled corridor settles to (veh/km)."""
    return min(demand, fd.downstream_capacity) / fd.free_flow_speed
