"""Time integration of the cell transmission model under a controller, an
incident schedule, and a demand profile.

Every run starts from ``warm_state``, free flow at the initial demand, and
integrates with explicit Euler on the flow-conservation update, default step
1 s, with the controller consulted on a fixed actuation period and its limits
held constant in between. While the incident is active the bottleneck
interface is capped by the downstream capacity (with the capacity drop engaged
above critical occupancy); outside the incident window the cap reverts to the
mainline capacity and the drop is inert.

``run_batch`` steps several scenarios that share sections, a step, horizon
and control period as one ``(B, C)`` state, a row without a zone cell behind
a pass-through cell; :func:`~vslsim.scenario.simulate_scenario` runs a batch
of one. Each row's demand and closure flag are read from its scenario, and
the bottleneck's operands built, only at the row's input steps, where its
inputs may change.
:func:`~vslsim.ctm.flux_law` and :func:`~vslsim.ctm.update_law` step the flow
rows of a small block laid out cells-major, the batch axis innermost;
controllers read rows of the ``(B, T, C)`` density history and return plain
limit arrays. The run goes from event to event (control instants, input
steps, every block's length of steps, the horizon); each copies the block into
the history, tests it against the density and flow bounds and restarts it.
When the first step after an event leaves every row's state unchanged, bit
for bit, the steps up to the next event are filled, not stepped. The trace
keeps the densities, the limit changes and the input schedules; its flows
and per-sample limits and inputs are derived on access, and the CSV, the
metrics and the vehicle balance call ``flux_law`` a block of samples at a
time, on operands built once per pass.

The trace CSV prints each value as ``'%.10g' % v`` does. Its varying
columns go through numpy a block of rows at a time (:func:`_format_g10`),
which proves the ten digits of each value it prints and leaves the rest to
``%``; the held limits and flags are formatted once per posted row and flag
pair, then looked up for each sample.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .control import Controller, LcConfig
from .ctm import (
    FundamentalDiagram,
    NetworkGeometry,
    bottleneck_operands,
    flow_row,
    flux_law,
    law_constants,
    speed_caps,
    update_law,
)

if TYPE_CHECKING:
    from .scenario import Scenario

# Values per block of the derived passes: the trace CSV formats this many
# values' worth of whole rows per numpy pass, and the metrics and the vehicle
# balance take blocks of this many flows. The CSV pass's temporaries
# (one-block arrays, and its text at 26 bytes a value) peak near 0.6 MB; a
# whole-trace pass would add tens of megabytes to the peak memory of a run.
CSV_BLOCK_VALUES = 4096

# Blocks of ``SimulationTrace._flow_blocks`` derived per ``flux_law`` call. A
# call costs about 20 us beyond its rows, as much as 100 fine-grid rows take,
# so one call per block of 4,096 values made the fine-grid CSV 10% slower.
_FLUX_CALL_BLOCKS = 8

# One value's text in 26 byte slots: the sign, the "0.000" of a negative
# exponent, ten digit slots (0xFF) with a point slot after each of the first
# nine, and the comma.
_G10_TEMPLATE = b"-0.000" + b".".join([b"\xff"] * 10) + b","

# The bits of 1e20 as an int64: ``_format_g10`` clamps ``|v|`` to it.
_G10_CLAMP = np.float64(1e20).view(np.int64)


class ControllerError(ValueError):
    """A controller produced speed limits outside the admissible range."""


@dataclass(frozen=True)
class IncidentSchedule:
    """Lane-closure window: the bottleneck discharges at ``downstream_capacity``
    whatever ``lanes_closed``, which scales only the advisory distance."""

    start: float  # h
    end: float  # h
    lanes_closed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < self.end < np.inf:
            raise ValueError("incident must satisfy 0 <= start < end < inf")
        if not 1 <= self.lanes_closed < np.inf:
            raise ValueError("lanes_closed must be at least 1")

    def active(self, t):
        """Whether the closure is in force at time(s) ``t`` (h), elementwise."""
        return (self.start <= t) & (t < self.end)


@dataclass(frozen=True)
class DemandProfile:
    """Piecewise-constant upstream demand (veh/h) over time (h)."""

    times: tuple[float, ...]
    flows: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.flows) or not self.times:
            raise ValueError("times and flows must be non-empty and equal length")
        if self.times[0] != 0.0:
            raise ValueError("demand profile must start at t = 0")
        if not all(a < b < np.inf for a, b in zip(self.times, self.times[1:])):
            raise ValueError("demand profile times must be finite and strictly increasing")
        if not all(0.0 <= f < np.inf for f in self.flows):
            raise ValueError("demand flows must be non-negative")

    @classmethod
    def constant(cls, flow: float) -> "DemandProfile":
        return cls((0.0,), (float(flow),))

    def at(self, t):
        """Demand in force at time(s) ``t`` (h): the flow of the last step
        starting at or before ``t``. A float gives a float, an array an array.
        A negative or NaN time raises ValueError."""
        scalar = isinstance(t, float) or np.ndim(t) == 0
        if not (t >= 0.0 if scalar else np.all(np.greater_equal(t, 0.0))):
            raise ValueError(f"demand time must be non-negative, got {t!r}")
        if scalar:
            return float(self.flows[bisect.bisect_right(self.times, t) - 1])
        return np.asarray(self.flows)[np.searchsorted(self.times, t, side="right") - 1]


def cfl_limit(geometry: NetworkGeometry, fd: FundamentalDiagram) -> float:
    """Largest admissible Euler step (h) for this geometry and diagram."""
    fastest = max(fd.free_flow_speed, fd.backprop_speed, fd.outflow_backprop_speed)
    return float(np.min(geometry.cell_lengths())) / fastest


@functools.cache
def _g10_tables() -> tuple[np.ndarray, ...]:
    """Tables of :func:`_format_g10`, built on its first call.

    - ``low_bands`` and ``edges``, per biased exponent E (2,048 entries): how
      many of the literals ``1e-4 .. 1e9`` (the lower ends of the printed
      exponents) are at or below the binade's low end, and the literal inside
      the binade or inf (NaN at E = 2047, which the clamp keeps out). A binade
      spans a factor of 2, so ``low_bands[E] + (|v| >= edges[E])`` is the
      ``searchsorted`` band. ``scales``: the exact power ``10**(9 - e)`` of
      each band, 1.0 for the bands out of range.
    - ``four_digits``: each four-digit number as ``d, 0xFF`` four times (one
      uint64), and ``four_zeros``: its trailing zeros (four for 0). The
      minimum of a digit byte and a digit slot keeps the digit; that of 0xFF
      and the point slot after it keeps the slot. One table serves all three
      digit groups: the high one, ``hi`` in [10, 99], reads as ``00hi``, and
      the mask holds 0, ``'.'`` or ``'0'`` under its leading ``'0', 0xFF``
      bytes, which the minimum leaves as they were.
    - ``masks``: one row per decimal exponent ``e`` in [-4, 9], sign and
      position of the last nonzero digit, which holds the template's bytes
      (0xFF for a digit) in the slots such a value prints and 0 in the
      others, after 20 zero rows for the band below 1e-4.
    - ``record``: the layout of a value's digit bytes, 26 bytes as in the
      template: 0xFF, 0xFF, then the high, the middle and the low group."""
    bands = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9])
    exponents = np.arange(2048)
    low_bands = np.searchsorted(bands, (exponents << 52).view(np.float64), side="right")
    edges = np.append(bands, np.nan).take(low_bands)  # the next literal, NaN past 1e9
    edges[edges.view(np.int64) >> 52 != exponents] = np.inf  # outside the binade
    scales = np.array(
        [1e0, 1e13, 1e12, 1e11, 1e10, 1e9, 1e8, 1e7, 1e6, 1e5, 1e4, 1e3, 1e2, 1e1, 1e0]
    )
    pairs = [f"{i:02d}" for i in range(100)]
    two_digits = np.frombuffer(
        b"".join(f"{p[0]}\xff{p[1]}\xff".encode("latin-1") for p in pairs), np.uint32
    )[:, None]
    four_digits = np.empty((100, 100, 2), np.uint32)
    four_digits[..., 0] = two_digits  # the high pair of four digits
    four_digits[..., 1] = two_digits.T
    two_zeros = np.array([2] + [len(p) - len(p.rstrip("0")) for p in pairs[1:]])
    # The zeros of the low pair, and those of the high pair where the low is 0.
    four_zeros = (two_zeros + (two_zeros == 2) * two_zeros[:, None]).ravel()
    # Mask rows over (e, negative, last, slot) for e in [-5, 9]; e = -5
    # stands for the band below 1e-4, whose values go through %.
    e = np.arange(-5, 10)[:, None, None, None]
    negative = np.array([False, True])[:, None, None]
    last = np.arange(1, 11)[:, None]
    slot = np.arange(26)
    digit = np.full(26, 10)
    digit[6:25:2] = np.arange(10)  # the digit index of each digit slot
    keep = (digit < e + 1) | (digit < last) | (slot == 25) | ((slot == 0) & negative)
    keep |= (e < 0) & (1 <= slot) & (slot <= 1 - e)  # "0." and -e - 1 zeros
    keep |= (e >= 0) & (last > e + 1) & (slot == 7 + 2 * e)  # the units' point
    keep &= e >= -4
    masks = np.where(keep, np.frombuffer(_G10_TEMPLATE, np.uint8), 0).reshape(-1, 26)
    record = np.dtype(
        {
            "names": ["prefix", "high", "middle", "low"],
            "formats": [np.uint16, np.uint64, np.uint64, np.uint64],
            "offsets": [0, 2, 10, 18],
            "itemsize": 26,
        }
    )
    return low_bands, edges, scales, four_digits.view(np.uint64).ravel(), four_zeros, masks, record


def _format_g10(values: np.ndarray) -> np.ndarray:
    """``'%.10g,' % v`` for each of the 1-D float ``values``, as the rows of
    a ``(n, 26)`` uint8 array padded with zero bytes.

    ``%.10g`` prints the ten significant digits ``D`` of ``v`` (correctly
    rounded, an integer in [1e9, 1e10)) at its decimal exponent ``e``; for
    ``-4 <= e <= 9`` in fixed notation, with trailing zeros after the point,
    and a bare point, dropped. This builds that text with array arithmetic
    for each value where it can prove ``D`` and ``e``:

    - ``|v|`` is clamped to 1e20 (NaN and inf included), ``e`` is where it
      falls among the literals ``1e-4 .. 1e9`` (two :func:`_g10_tables`
      entries at its biased exponent and one comparison), and ``scaled = |v|
      * 10**(9 - e)`` one correctly rounded product (the power is exact).
      Where ``scaled < 1e10 < 2**34`` it is within half an ulp, ``2**-20``,
      of the exact product ``P``. Below 1e-4 the factor is 1.0, so
      ``scaled < 1e9``; from 1e10 on ``scaled >= 1e10``.
    - A value is kept where ``scaled >= 1e9``, ``D = rint(scaled) < 1e10``
      and ``|scaled - D| < 1/2 - 2**-16``. Then ``|P - D| < 1/2``: ``D`` is
      ``P`` rounded, and no tie.
    - If ``P >= 1e9``, then ``10**e <= |v| < 10**(e + 1)`` (as ``P < D + 1/2
      < 1e10``): ``e`` is the exponent and ``D`` the digits, with no carry.
      Otherwise ``1e9 - 2**-20 <= P < 1e9``, and ``|v|`` rounds to ten
      digits as ``10**e``: ``D = 1e9`` at ``e`` again.

    ``D`` splits into 2 + 4 + 4 digits by two float floor divisions, by 1e8
    and by 1e4; each is exact, as ``D`` is an integer below 1e10 and no
    quotient rounds to an integer it does not reach. One four-digit table
    gives every group's digit bytes, and another its trailing zeros.
    The three groups fill a 26-byte record laid out as the text, which one
    contiguous ``minimum`` merges into the value's mask row.

    Every other value (zero, subnormals, NaN, inf, an exponent outside
    [-4, 9], a fraction near one half, ``D`` at its bounds) is formatted
    with ``%``, all of them in one list. No floating-point warning is
    raised: the clamp is an int64 minimum on the bits of ``|v|``, which
    order as the doubles do and put every NaN above inf, so no float
    operation sees a NaN, signaling or not. The numpy kernels are abs,
    minimum (int64, uint8), an int64 right shift, take, float multiply,
    divide, subtract, floor and rint, comparisons, float-to-int casts,
    flatnonzero and small integer sums: exponent tables, not searchsorted or
    log10; float floor, not integer division; minimum, not bitwise and. A
    kernel that no op ran before adds its code pages to the op's peak memory.
    """
    low_bands, edges, scales, four_digits, four_zeros, masks, record = _g10_tables()
    magnitude = np.abs(values)
    bits = magnitude.view(np.int64)
    np.minimum(bits, _G10_CLAMP, out=bits)
    exponent = bits >> 52  # biased: the sign bit of |v| is 0
    band = low_bands.take(exponent)  # e + 5 from 1e-4 on
    band += magnitude >= edges.take(exponent)
    scaled = magnitude * scales.take(band)
    digits = np.rint(scaled)
    fast = (scaled >= 1e9) & (digits < 1e10)
    fast &= np.abs(scaled - digits) < 0.5 - 2.0**-16
    slow = ~fast
    digits[slow] = 1e9
    hi = np.floor(digits / 1e8)
    digits -= hi * 1e8
    mid = np.floor(digits / 1e4)
    digits -= mid * 1e4
    hi, mid, lo = hi.astype(np.intp), mid.astype(np.intp), digits.astype(np.intp)
    # Trailing zeros of D: those of the low group, plus the middle's where
    # the low is 0, plus the high's where both are. D >= 1e9, so at most 9.
    zeros = four_zeros.take(lo)
    carry = np.flatnonzero(lo == 0)
    zeros[carry] += four_zeros.take(mid[carry])
    carry = carry[mid[carry] == 0]
    zeros[carry] += four_zeros.take(hi[carry])
    # The mask row of (e, sign, last nonzero digit 10 - zeros).
    row = (band * 2 + np.signbit(values)) * 10 + (9 - zeros)
    text = masks.take(row, axis=0)
    digit_bytes = np.empty(values.shape[0], record)
    digit_bytes["prefix"] = 0xFFFF
    digit_bytes["high"] = four_digits.take(hi)
    digit_bytes["middle"] = four_digits.take(mid)
    digit_bytes["low"] = four_digits.take(lo)
    np.minimum(text, digit_bytes.view(np.uint8).reshape(-1, 26), out=text)
    if slow.any():
        printed = ["%.10g," % v for v in values[slow].tolist()]
        text[slow] = np.array(printed, dtype="S26").view(np.uint8).reshape(len(printed), 26)
    return text


@dataclass
class SimulationTrace:
    """Record of one run on a uniform time grid.

    It stores what the flux law cannot recompute: ``densities`` over every
    simulated cell (zone first when present), its scenario's input schedules
    (``demand_profile``, ``incident``, ``lc``; references, not copies), and
    the posted speeds ``[zone, section 1 .. N]`` only where they change:
    ``limit_rows[i]`` holds from step ``limit_steps[i]`` on. The per-sample
    ``demand``, ``incident_active``, ``lc_active`` and ``limits`` and the
    ``flows`` (cell-boundary flows, admitted inflow first and bottleneck
    discharge last) are derived on each access, bit for bit the run's own:
    the run read the same schedules, and the flux law is elementwise.
    """

    geometry: NetworkGeometry
    fd: FundamentalDiagram
    times: np.ndarray
    densities: np.ndarray
    demand_profile: DemandProfile
    limit_steps: np.ndarray
    limit_rows: np.ndarray
    incident: IncidentSchedule | None = None
    lc: LcConfig | None = None

    @property
    def num_samples(self) -> int:
        return self.times.shape[0]

    @property
    def dt(self) -> float:
        if self.num_samples < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    @property
    def section_densities(self) -> np.ndarray:
        """(T, N) view of the mainline sections."""
        return self.densities[:, 1:] if self.geometry.has_zone else self.densities

    @property
    def upstream_densities(self) -> np.ndarray:
        return self.densities[:, 0]

    @property
    def demand(self) -> np.ndarray:
        """(T,) upstream demand at each sample."""
        return self.demand_profile.at(self.times)

    @property
    def incident_active(self) -> np.ndarray:
        """(T,) whether the closure is in force at each sample."""
        if self.incident is None:
            return np.zeros(self.num_samples, dtype=bool)
        return self.incident.active(self.times)

    @property
    def lc_active(self) -> np.ndarray:
        """(T,) whether advisories are posted: the closure, under an ``lc``."""
        return self.incident_active & (self.lc is not None)

    def _posted(self) -> np.ndarray:
        """(T,) index into ``limit_rows`` of the posted row at each sample."""
        return np.searchsorted(self.limit_steps, np.arange(self.num_samples), side="right") - 1

    @property
    def limits(self) -> np.ndarray:
        """(T, N + 1) posted speeds at each sample."""
        return self.limit_rows.take(self._posted(), axis=0)

    @property
    def flows(self) -> np.ndarray:
        """(T, C + 1) cell-boundary flows, recomputed from the densities: the
        one block of :meth:`_flow_blocks` that holds every sample."""
        ((_, q),) = self._flow_blocks(self.num_samples)
        return q

    def _flow_blocks(self, rows: int) -> Iterator[tuple[slice, np.ndarray]]:
        """Consecutive blocks of at most ``rows`` samples, each as its slice
        of the samples and a view of its ``(rows, C + 1)`` flows.

        The demand, speed caps, law's constants and bottleneck operands (``cap_d``
        alone where no drop engages) and the stretch ends are computed once per
        pass. The flows of ``_FLUX_CALL_BLOCKS`` blocks at a time go into one
        buffer, reused for the next ones, with one :func:`~vslsim.ctm.flux_law`
        call per stretch of steps under one posted row that they meet; a
        consumer copies what it keeps."""
        fd, samples, n_cells = self.fd, self.num_samples, self.geometry.num_cells
        caps, constants = speed_caps(self.limit_rows, n_cells, fd), law_constants(fd)
        closure_drop = self.lc.residual_drop if self.lc else fd.capacity_drop_factor
        cap_d, dropped, threshold = bottleneck_operands(fd, self.incident_active, closure_drop)
        ends, demand = np.append(self.limit_steps[1:], samples).tolist(), self.demand
        span = min(_FLUX_CALL_BLOCKS * rows, samples)
        buffer = np.empty((span, n_cells + 1))
        i = 0  # the posted row of sample k
        for first in range(0, samples, span):
            last = min(first + span, samples)
            k = first
            while k < last:
                while ends[i] <= k:
                    i += 1
                part = slice(k, min(ends[i], last))
                row = flow_row(buffer[k - first : part.stop - first], self.densities[part])
                v_cells, cap = self.limit_rows[i, -n_cells:], cap_d[part]
                rest = (cap, threshold) if dropped is cap_d else (dropped[part], threshold[part])
                flux_law(row, v_cells, caps[i], demand[part], (cap, *rest), constants)
                k = part.stop
            for start in range(first, last, rows):
                stop = min(start + rows, last)
                yield slice(start, stop), buffer[start - first : stop - first]

    def vehicle_balance(self) -> dict[str, float]:
        """Cumulative conservation audit over the whole run.

        ``residual`` is (final storage - initial storage) - (entered - exited)
        in vehicles; it should vanish to float precision for a correct flux
        and update pairing. Only the entrance and exit flows are kept.
        """
        dt = self.dt
        width = self.geometry.num_cells + 1
        ends = np.empty((self.num_samples, 2))
        for block, q in self._flow_blocks(max(1, CSV_BLOCK_VALUES // width)):
            ends[block] = q[:, :: width - 1]
        lengths = self.geometry.cell_lengths()
        entered = float(np.sum(ends[:-1, 0])) * dt
        exited = float(np.sum(ends[:-1, 1])) * dt
        stored_initial = float(lengths @ self.densities[0])
        stored_final = float(lengths @ self.densities[-1])
        return {
            "entered": entered,
            "exited": exited,
            "stored_initial": stored_initial,
            "stored_final": stored_final,
            "residual": (stored_final - stored_initial) - (entered - exited),
        }

    def to_csv(self, path, comment: str | None = None) -> None:
        """Write one row per sample; a leading comment line carries provenance.

        Every value prints as ``%.10g`` prints it. The time, densities and
        flows of whole rows, ``CSV_BLOCK_VALUES`` values at a time, go
        through :func:`_format_g10`; each block's flows come from
        :meth:`_flow_blocks`. The posted speeds and the two flags end each
        row: that suffix is formatted once per posted row and flag pair,
        then looked up for each sample through :meth:`_posted`.
        """
        n = self.geometry.num_sections
        columns = ["t_h", "rho_0"]
        columns += [f"rho_{i}" for i in range(1, n + 1)]
        columns += ["q_in"] + [f"q_{i}" for i in range(1, n + 2)]
        columns += [f"v_{i}" for i in range(n + 1)]
        columns += ["incident", "lc"]
        table = [self.times, self.upstream_densities, self.section_densities]
        held = ",".join(["%.10g"] * (n + 1))
        # The suffix of each posted row and flag pair, entry 4 * row + incident
        # + 2 * lc, as a row of bytes zero-padded to the longest.
        flags = (",0,0\n", ",1,0\n", ",0,1\n", ",1,1\n")
        suffixes = np.array(
            [(held % tuple(v) + f).encode() for v in self.limit_rows.tolist() for f in flags]
        )
        suffixes = suffixes.view(np.uint8).reshape(len(suffixes), -1)
        entry = 4 * self._posted() + self.incident_active * (1 if self.lc is None else 3)
        # Whole rows per block; the n + 3 held columns are not in the block.
        rows = max(1, CSV_BLOCK_VALUES // (len(columns) - n - 3))
        with open(path, "wb") as fh:
            if comment:
                fh.write(f"# {comment}\n".encode())
            fh.write((",".join(columns) + "\n").encode())
            for block, q in self._flow_blocks(rows):
                parts = [col[block] for col in table]
                if not self.geometry.has_zone:
                    parts.append(q[:, 0])  # no zone cell: q_in and q_1 coincide
                values = np.column_stack(parts + [q])
                text = _format_g10(values.ravel()).reshape(values.shape[0], -1)
                text = np.concatenate((text, suffixes.take(entry[block], axis=0)), axis=1)
                fh.write(text.tobytes().translate(None, b"\0"))


def _check_limits(limits, fd: FundamentalDiagram, width: int) -> np.ndarray:
    """``limits`` as an array; ControllerError unless ``width`` values in (0, v_f],
    tested on Python floats (the chained comparison fails NaN)."""
    row = np.asarray(limits, dtype=float)
    if row.shape == (width,) and all(0.0 < v <= fd.free_flow_speed for v in row.tolist()):
        return row
    raise ControllerError(
        f"controller returned {row.tolist()}; expected {width} limits, each "
        f"above 0 and at most free flow ({fd.free_flow_speed:.6g} km/h)"
    )


def warm_state(scenario: "Scenario") -> np.ndarray:
    """Free flow at the initial demand: ``(C,)`` min(demand, capacity) / v_f."""
    rho = min(scenario.demand.at(0.0), scenario.fd.capacity) / scenario.fd.free_flow_speed
    return np.full(scenario.geometry.num_cells, rho)


def _in_range(densities: np.ndarray, flows: np.ndarray, jam_out: float) -> bool:
    """Whether every density is finite and non-negative, every bottleneck
    (last cell) density at most ``jam_out`` and every flow non-negative, over
    the last axis of arrays of any shape. Reductions only, through which NaN
    propagates and fails; on a strided view numpy buffers them: pass a block."""
    return bool(
        densities.min() >= 0.0
        and densities.max() < np.inf
        and densities[..., -1].max() <= jam_out
        and (flows.size == 0 or flows.min() >= 0.0)
    )


def _range_error(
    times: np.ndarray, densities: np.ndarray, flows: np.ndarray, jam_out: float, first: int
) -> ValueError | None:
    """The first step whose densities or flows leave the model's range, as a
    ValueError, or None: a density that is negative or not finite, a
    bottleneck density above ``jam_out``, a negative flow; NaN fails every
    test. ``densities`` and ``flows`` hold the rows of steps ``first`` on. The
    message names the step, its time and the cell (for a flow, the cell whose
    upstream edge it crosses; the last edge is the bottleneck)."""
    n = densities.shape[1] - 1
    found = []
    for values, ok, problem in (
        (
            densities,
            (densities >= 0.0) & (densities < np.inf),
            "cell {c} density {x:.6g} is negative or not finite",
        ),
        (
            densities[:, n:],
            densities[:, n:] <= jam_out,
            f"bottleneck cell {n} density {{x:.6g}} outside [0, {jam_out:.6g}]",
        ),
        (flows, flows >= 0.0, "flow {x:.6g} into cell {c} is negative or not a number"),
    ):
        bad = ~ok
        if bad.any():
            k, c = np.unravel_index(np.argmax(bad), bad.shape)
            found.append((first + k, problem.format(c=c, x=values[k, c])))
    if not found:
        return None
    k, problem = min(found, key=lambda item: item[0])
    return ValueError(
        f"step {k} (t = {times[k] * 60.0:.6g} min): {problem}; "
        "flux computation is inconsistent"
    )


def batch_key(scenario: "Scenario") -> tuple:
    """Scenarios with equal keys step together in :func:`run_batch`: the same
    fundamental diagram, sections, step, horizon and control period. Rows
    with and without a zone cell share a key."""
    return (
        scenario.fd,
        scenario.geometry.num_sections,
        scenario.dt_hours,
        scenario.horizon,
        scenario.control_period_hours,
    )


def run_batch(
    scenarios: Sequence["Scenario"], controllers: Sequence[Controller]
) -> list[SimulationTrace | Exception]:
    """Simulate scenarios of one :func:`batch_key` as one ``(B, C)`` state,
    ``C`` the largest cell count, each under its own controller; the result
    for each is its trace, or the exception that stopped it.

    A row without a zone cell in a batch with one is right-aligned: its cell
    0 passes its demand through, with density 1.0, ``dt / L`` 0.0 and the
    demand as its speed (set at each input step), so it sends ``demand *
    1.0``, the demand bit for bit (``-0.0`` too; a ``-0.0`` density would
    turn to 0.0 in one step). The row's own entrance then applies its speed
    cap and supply to that flow, as its own run does. A batch of equal cell
    counts has no pass-through cell.

    Every row starts from ``warm_state`` of its scenario. At each control
    instant its controller, ``controller(cells, t)``, gets a read-only view
    of the row's own cells (a row of ``trace.densities``) and the time in
    hours, and returns the ``N + 1`` posted limits ``[zone, section 1 ..
    N]`` (a row of ``trace.limits``), which hold until the next call.
    Identical inputs give bit-identical traces. Each scenario checked itself
    when it was built, so its step meets the CFL bound and divides the
    horizon and the control period into whole steps.

    One :func:`~vslsim.ctm.flux_law` and one :func:`~vslsim.ctm.update_law`
    call advance every row per step; being elementwise, they give each row
    the bytes it gets on its own. They write a block of ``span`` + 1 states
    and ``span`` flow rows laid out cells-major, the batch axis innermost,
    through the :func:`~vslsim.ctm.flow_row` of each block row and the law's
    constants, all built once per run. ``span`` is a control period, but at most
    ``CSV_BLOCK_VALUES // (B * (C + 1))`` steps. A row's inputs change only
    at step 0 and the first step at or after each time its scenario names
    (each demand step, the closure's start and end); there each live row's
    demand and closure flag are read from its scenario into ``(B,)`` vectors
    and the bottleneck operands built on the rows' closure drops, one vector
    per run. The steps run from event to event: control instants,
    every ``span`` steps, every row's input steps and the horizon. Every
    event copies the block into the ``(B, T, C)`` history (a trace views its
    row's own columns), checks each row's own columns and restarts the
    block there; the horizon's flow row is checked at the end.
    If the step at an event leaves the whole state unchanged as bytes
    (``-0.0`` and ``0.0`` differ), the steps up to the next event are filled
    with copies of it instead of computed.

    A row fails alone: at the controller call that raises, or that returns
    other than ``N + 1`` limits in (0, ``free_flow_speed``]
    (``ControllerError``), or by the next check once its state leaves range
    (``ValueError`` naming the first step and cell). The exception is
    recorded and the row set to an empty road with no demand, which steps
    without effect. A batch of one steps on the block's ``(C,)`` rows.
    """
    if len({batch_key(s) for s in scenarios}) != 1:
        raise ValueError("a batch needs one or more scenarios with one batch_key")
    if len(controllers) != len(scenarios):
        raise ValueError(
            f"a batch needs one controller per scenario: got {len(controllers)} "
            f"controllers for {len(scenarios)} scenarios"
        )
    base = scenarios[0]
    fd, dt, n_sections = base.fd, base.dt_hours, base.geometry.num_sections
    n_steps = int(round(base.horizon / dt))
    ctrl_every = int(round(base.control_period_hours / dt))
    n_cells, n_rows = max(s.geometry.num_cells for s in scenarios), len(scenarios)
    # Each row's first own cell: 1 behind a pass-through cell, else 0.
    first = [n_cells - s.geometry.num_cells for s in scenarios]
    through = [b for b, f in enumerate(first) if f]

    # The input steps come from the times a row's scenario names, whatever
    # the flows: a demand step from 0.0 to -0.0 is a change. Each row's
    # demand is read from its scenario there, 0.0 once the row fails.
    times = np.arange(n_steps + 1) * dt
    named = [t for s in scenarios for t in s.demand.times]
    named += [t for s in scenarios if s.incident for t in (s.incident.start, s.incident.end)]
    drops = np.array([s.lc.residual_drop if s.lc else fd.capacity_drop_factor for s in scenarios])
    demand = np.zeros(n_rows)
    input_steps = {0, *(min(bisect.bisect_left(times, t), n_steps) for t in named)}

    densities = np.empty((n_rows, n_steps + 1, n_cells))
    cells = densities.view()  # what the controllers see
    cells.flags.writeable = False
    # Steps run on a block of ``span`` + 1 states and ``span`` flow rows,
    # indexed (step - event, B, C) but laid out cells-major, the batch axis
    # innermost: each slice along the cell axis is one contiguous block.
    span = min(ctrl_every, max(1, CSV_BLOCK_VALUES // (n_rows * (n_cells + 1))))
    state = np.empty((span + 1, n_cells, n_rows)).swapaxes(1, 2)
    state[0] = [np.r_[[1.0] * f, warm_state(s)] for f, s in zip(first, scenarios)]
    flows = np.empty((span, n_cells + 1, n_rows)).swapaxes(1, 2)
    lengths = [np.r_[[np.inf] * f, s.geometry.cell_lengths()] for f, s in zip(first, scenarios)]
    dt_over_length = (dt / np.stack(lengths, axis=1)).T  # dt / inf: 0.0
    # The law's speeds and caps, laid out as the block; a pass-through
    # interface keeps the capacity as its cap.
    speeds = np.full((n_cells, n_rows), fd.free_flow_speed).T
    caps = np.full((n_cells, n_rows), fd.capacity).T
    changes: list[list[tuple[int, np.ndarray]]] = [[] for _ in scenarios]
    failed: list[Exception | None] = [None] * n_rows

    def fail(b: int, exc: Exception) -> None:
        failed[b] = exc
        state[0, b] = 0.0  # the next check copies it into the history
        demand[b] = 0.0

    def check(rho: np.ndarray, q: np.ndarray, start: int) -> None:
        """Fail each live row whose ``rho`` or ``q`` (from ``start``) leave range."""
        jam_out = fd.outflow_jam_density
        for b, f in enumerate(first):
            if failed[b] is None:  # the row's own columns
                exc = _range_error(times, rho[b, :, f:], q[:, b, f:], jam_out, start)
                if exc is not None:
                    fail(b, exc)

    # Events: control instants, input steps, every ``span`` steps (so a
    # stretch stays inside the block) and the horizon.
    events = sorted(
        {*range(0, n_steps + 1, ctrl_every), *range(0, n_steps + 1, span), *input_steps, n_steps}
    )

    # Per step: a (C,) row and scalars for one scenario, (B, C) and (B,) rows
    # for several. The flow row of each block row and the law's constants are
    # built once per run; speeds and caps change in place, so views follow.
    row = 0 if n_rows == 1 else slice(None)
    steps, constants = list(state[:, row]), law_constants(fd)
    flow_rows = [flow_row(q, rho) for q, rho in zip(flows[:, row], steps)]
    v_cells, cap, dtl = speeds[row], caps[row], dt_over_length[row]

    # Each event copies the block's steps since the last into the history,
    # checks them and restarts the block there: block row j is step k + j.
    for last, k, stop in zip([0, *events], events, [*events[1:], n_steps + 1]):
        rho_past, q_past = densities[:, last : k + 1], flows[: k - last]
        rho_past[...] = state[: k + 1 - last].swapaxes(0, 1)
        state[0] = state[k - last]  # the block holds steps k, last + 1 .. k
        if not _in_range(state[: k + 1 - last], q_past, fd.outflow_jam_density):
            check(rho_past, q_past, last)
        if k in input_steps:
            t = times[k]
            demand[:] = [s.demand.at(t) if f is None else 0.0 for s, f in zip(scenarios, failed)]
            closed = np.array([bool(s.incident and s.incident.active(t)) for s in scenarios])
            tail = bottleneck_operands(fd, closed, drops)
            if n_rows == 1:  # Python floats: the law's one-state tail is float arithmetic
                tail = tuple(x.item(0) for x in tail)
            speeds[through, 0] = demand[through]
        if k % ctrl_every == 0:
            t = k * dt
            for b, (controller, f) in enumerate(zip(controllers, first)):
                if failed[b] is not None:
                    continue
                try:
                    limits = _check_limits(controller(cells[b, k, f:], t), fd, n_sections + 1)
                except Exception as exc:  # noqa: BLE001 - fails this row only
                    fail(b, exc)
                    continue
                if not changes[b] or limits.tobytes() != changes[b][-1][1].tobytes():
                    changes[b].append((k, limits.copy()))  # limits may be reused
                    speeds[b, f:] = limits[f - n_cells :]
                    caps[b, f:] = speed_caps(limits, n_cells - f, fd)
        if None not in failed:
            break
        d_k = demand[row]  # read after a failed row's demand was zeroed
        for j in range(stop - k):
            flux_law(flow_rows[j], v_cells, cap, d_k, tail, constants)
            if k + j == n_steps:
                break
            update_law(flow_rows[j], dtl, steps[j + 1])
            # A step that leaves the state as it was repeats up to the next
            # event. Bytes, not values: a step may turn -0.0 into 0.0.
            if j == 0 and steps[1].tobytes() == steps[0].tobytes():
                state[2 : stop + 1 - k] = state[0]
                flows[1 : stop - k] = flows[0]
                break
    else:  # the horizon's flow row; its event checked its densities
        if not flows[0].min() >= 0.0:
            check(densities[:, n_steps:], flows[:1], n_steps)

    results: list = list(failed)  # each row's exception, or its trace
    for b, s in enumerate(scenarios):
        if failed[b] is None:
            limit_steps, limit_rows = zip(*changes[b])
            results[b] = SimulationTrace(
                geometry=s.geometry,
                fd=fd,
                times=times,
                densities=densities[b, :, first[b] :],
                demand_profile=s.demand,
                limit_steps=np.array(limit_steps),
                limit_rows=np.array(limit_rows),
                incident=s.incident,
                lc=s.lc,
            )
    return results

