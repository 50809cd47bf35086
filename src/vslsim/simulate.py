"""Time integration of the cell transmission model under a controller, an
incident schedule, and a demand profile.

Every run starts from ``warm_state``, free flow at the initial demand, and
integrates with explicit Euler on the flow-conservation update, default step
1 s, with the controller consulted on a fixed actuation period and its limits
held constant in between. While the incident is active the bottleneck
interface is capped by the downstream capacity (with the capacity drop engaged
above critical occupancy); outside the incident window the cap reverts to the
mainline capacity and the drop is inert.

``run_batch`` steps several scenarios that share a cell count, step, horizon
and control period as one ``(B, C)`` state;
:func:`~vslsim.scenario.simulate_scenario` runs a batch of one.
The demand and the incident and lane-change flags are computed once per run.
A row's inputs change only at its input steps: step 0 and the first step at
or after each time its scenario names, the start of each demand-profile step
and the closure's start and end. The bottleneck cap and drop are taken at
these steps. Each step writes :func:`~vslsim.ctm.euler_update` into a
preallocated density history and :func:`~vslsim.ctm.fluxes` into a scratch
block of one control period; controllers read the history's rows and return
plain limit arrays. The run goes from event to event: each control instant,
input step and the horizon. Between two events every step has the same
inputs, so when the first step after an event leaves every row's state
unchanged, bit for bit, each step up to the next event repeats it: its
densities and flows are filled, not stepped.
Density and flow bounds are checked, filled steps included, at each control
instant and at the end. The trace keeps the densities and the limit
changes; its flows and per-sample limits are derived on access, and the
CSV, the metrics and the vehicle balance derive the flows a block of
samples at a time.

The trace CSV prints each value as ``'%.10g' % v`` does. Its varying
columns go through numpy a block of rows at a time (:func:`_format_g10`),
which proves the ten digits of each value it prints and leaves the rest to
``%``; the held limits and flags are formatted once per stretch.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .control import Controller
from .ctm import (
    FundamentalDiagram,
    NetworkGeometry,
    engaged_drop,
    euler_update,
    fluxes,
    speed_caps,
)

if TYPE_CHECKING:
    from .scenario import Scenario

# Values per block of the derived passes: the trace CSV formats this many
# values' worth of whole rows per numpy pass, and the metrics and the vehicle
# balance take blocks of this many flows. The CSV pass's temporaries
# (one-block arrays, and its text at 26 bytes a value) peak near 0.6 MB; a
# whole-trace pass would add tens of megabytes to the peak memory of a run.
CSV_BLOCK_VALUES = 4096

# Blocks of ``SimulationTrace._flow_blocks`` derived per ``fluxes`` call. A
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
    """Lane-closure window creating the downstream bottleneck."""

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


def _bottleneck(fd: FundamentalDiagram, active, lc_on, residual_drop):
    """Bottleneck cap and engaged drop factor at each step (elementwise): the
    downstream capacity while the closure holds and the mainline capacity
    otherwise; advisories replace the diagram's drop with ``residual_drop``."""
    cap_d = np.where(active, fd.downstream_capacity, fd.capacity)
    return cap_d, engaged_drop(cap_d, fd, lc_on, residual_drop)


@functools.cache
def _g10_tables() -> tuple[np.ndarray, ...]:
    """Tables of :func:`_format_g10`, built on its first call.

    - ``bands``: the lower ends ``1e-4 .. 1e9`` of the decimal exponents it
      prints, and ``scales``: the exact power ``10**(9 - e)`` of each
      ``searchsorted`` band, 1.0 for the bands out of range.
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
    four_zeros = two_zeros + (two_zeros == 2) * two_zeros[:, None]
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
    return bands, scales, four_digits.view(np.uint64).ravel(), four_zeros.ravel(), masks, record


def _format_g10(values: np.ndarray) -> np.ndarray:
    """``'%.10g,' % v`` for each of the 1-D float ``values``, as the rows of
    a ``(n, 26)`` uint8 array padded with zero bytes.

    ``%.10g`` prints the ten significant digits ``D`` of ``v`` (correctly
    rounded, an integer in [1e9, 1e10)) at its decimal exponent ``e``; for
    ``-4 <= e <= 9`` in fixed notation, with trailing zeros after the point,
    and a bare point, dropped. This builds that text with array arithmetic
    for each value where it can prove ``D`` and ``e``:

    - ``|v|`` is clamped to 1e20 (NaN and inf included), ``e`` is where it
      falls among the literals ``1e-4 .. 1e9``, and ``scaled = |v| *
      10**(9 - e)`` one correctly rounded product (the power is exact).
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
    minimum (int64, uint8), searchsorted, take, float multiply, divide,
    subtract, floor and rint, comparisons, float-to-int casts, flatnonzero
    and small integer sums: searchsorted, not log10; float floor, not
    integer division; minimum, not bitwise and. A kernel that no op ran
    before adds its code pages to the op's peak memory.
    """
    bands, scales, four_digits, four_zeros, masks, record = _g10_tables()
    magnitude = np.abs(values)
    bits = magnitude.view(np.int64)
    np.minimum(bits, _G10_CLAMP, out=bits)
    band = np.searchsorted(bands, magnitude, side="right")  # e + 5 from 1e-4 on
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
    simulated cell (zone first when present), the ``demand`` and the
    incident and advisory flags per sample, and the posted speeds
    ``[zone, section 1 .. N]`` only where they change: ``limit_rows[i]``
    holds from step ``limit_steps[i]`` on. ``limits`` (one row per sample)
    and ``flows`` (the cell-boundary flows, admitted inflow first and
    bottleneck discharge last) are derived from these on each access; the
    flux law is elementwise, so they equal the run's own values bit for bit.
    """

    geometry: NetworkGeometry
    fd: FundamentalDiagram
    times: np.ndarray
    densities: np.ndarray
    demand: np.ndarray
    incident_active: np.ndarray
    lc_active: np.ndarray
    limit_steps: np.ndarray
    limit_rows: np.ndarray
    lc_residual_drop: float = 0.0

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
    def limits(self) -> np.ndarray:
        """(T, N + 1) posted speeds at each sample."""
        counts = np.diff(self.limit_steps, append=self.num_samples)
        return np.repeat(self.limit_rows, counts, axis=0)

    @property
    def flows(self) -> np.ndarray:
        """(T, C + 1) cell-boundary flows, recomputed from the densities: the
        one block of :meth:`_flow_blocks` that holds every sample."""
        ((_, q),) = self._flow_blocks(self.num_samples)
        return q

    def _flow_blocks(self, rows: int) -> Iterator[tuple[slice, np.ndarray]]:
        """Consecutive blocks of at most ``rows`` samples, each as its slice
        of the samples and a view of its ``(rows, C + 1)`` flows.

        The speed caps, the bottleneck cap and drop and the stretch ends
        are computed once per pass. The flows of ``_FLUX_CALL_BLOCKS``
        blocks at a time go into one buffer, reused for the next ones, with
        one :func:`~vslsim.ctm.fluxes` call per stretch of steps under one
        posted row that they meet; a consumer copies what it keeps."""
        fd, samples = self.fd, self.num_samples
        caps = speed_caps(self.limit_rows, self.geometry.num_cells, fd)
        cap_d, drop = _bottleneck(
            fd, self.incident_active, self.lc_active, self.lc_residual_drop
        )
        ends = np.append(self.limit_steps[1:], samples).tolist()
        span = min(_FLUX_CALL_BLOCKS * rows, samples)
        buffer = np.empty((span, self.geometry.num_cells + 1))
        i = 0  # the posted row of sample k
        for first in range(0, samples, span):
            last = min(first + span, samples)
            k = first
            while k < last:
                while ends[i] <= k:
                    i += 1
                part = slice(k, min(ends[i], last))
                q = buffer[k - first : part.stop - first]
                rho, demand, v = self.densities[part], self.demand[part], self.limit_rows[i]
                fluxes(rho, v, caps[i], demand, cap_d[part], drop[part], fd, out=q)
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
        :meth:`_flow_blocks`. The posted speeds and the two flags are
        held over a stretch of steps, which starts at each limit change and
        at each flag switch: that suffix is formatted once per stretch and
        copied onto each of its rows.
        """
        n = self.geometry.num_sections
        columns = ["t_h", "rho_0"]
        columns += [f"rho_{i}" for i in range(1, n + 1)]
        columns += ["q_in"] + [f"q_{i}" for i in range(1, n + 2)]
        columns += [f"v_{i}" for i in range(n + 1)]
        columns += ["incident", "lc"]
        table = [self.times, self.upstream_densities, self.section_densities]
        held = ",".join(["%.10g"] * (n + 1) + ["%d", "%d"]) + "\n"
        incident, lc = self.incident_active, self.lc_active
        # A boolean mask, not np.union1d: numpy's set routines import numpy.ma.
        first = np.zeros(self.num_samples, dtype=bool)
        first[self.limit_steps] = True
        first[1:] |= (incident[1:] != incident[:-1]) | (lc[1:] != lc[:-1])
        starts = np.flatnonzero(first)
        posted = np.searchsorted(self.limit_steps, starts, side="right") - 1
        # Each stretch's suffix as a row of bytes, zero-padded to the longest.
        suffixes = np.array(
            [
                (held % (*self.limit_rows[i].tolist(), incident[k], lc[k])).encode()
                for k, i in zip(starts.tolist(), posted.tolist())
            ]
        )
        suffixes = suffixes.view(np.uint8).reshape(starts.size, -1)
        stretch = np.cumsum(first) - 1
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
                text = np.concatenate((text, suffixes.take(stretch[block], axis=0)), axis=1)
                fh.write(text.tobytes().translate(None, b"\0"))


def _check_limits(limits, fd: FundamentalDiagram, width: int) -> np.ndarray:
    """``limits`` as an array; ControllerError unless ``width`` values in (0, v_f]."""
    row = np.asarray(limits, dtype=float)
    if row.shape == (width,) and row.min() > 0.0 and row.max() <= fd.free_flow_speed:
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
    the last axis of arrays of any shape. Reductions only: they allocate
    nothing, and NaN propagates through them and fails."""
    return bool(
        densities.min() >= 0.0
        and densities.max() < np.inf
        and densities[..., -1].max() <= jam_out
        and (flows.size == 0 or flows.min() >= 0.0)
    )


def _check_run(
    times: np.ndarray,
    densities: np.ndarray,
    flows: np.ndarray,
    fd: FundamentalDiagram,
    first: int = 0,
) -> None:
    """Raise at the first step whose densities or flows leave the model's
    range: a density that is negative or not finite, a bottleneck density
    above ``outflow_jam_density``, a negative flow; NaN fails every test.
    ``densities`` and ``flows`` hold the rows of steps ``first`` on. The
    message names the step, its time and the cell (for a flow, the cell
    whose upstream edge it crosses; the last edge is the bottleneck)."""
    jam_out = fd.outflow_jam_density
    if _in_range(densities, flows, jam_out):
        return
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
    k, problem = min(found, key=lambda item: item[0])
    raise ValueError(
        f"step {k} (t = {times[k] * 60.0:.6g} min): {problem}; "
        "flux computation is inconsistent"
    )


def batch_key(scenario: "Scenario") -> tuple:
    """Scenarios with equal keys step together in :func:`run_batch`: the same
    fundamental diagram, sections, zone presence (hence cell count), step,
    horizon and control period."""
    return (
        scenario.fd,
        scenario.geometry.num_sections,
        scenario.geometry.has_zone,
        scenario.dt_hours,
        scenario.horizon,
        scenario.control_period_hours,
    )


def run_batch(
    scenarios: Sequence["Scenario"], controllers: Sequence[Controller]
) -> list[SimulationTrace | Exception]:
    """Simulate scenarios of one :func:`batch_key` as one ``(B, C)`` state,
    each under its own controller; the result for each is its trace, or the
    exception that stopped it.

    Every row starts from ``warm_state`` of its scenario. At each control
    instant its controller, ``controller(cells, t)``, gets a read-only
    ``(C,)`` view of the row's densities (a row of ``trace.densities``) and
    the time in hours, and returns the ``N + 1`` posted limits ``[zone,
    section 1 .. N]`` (a row of ``trace.limits``), which hold until the next
    call. Identical inputs give bit-identical traces. Each scenario checked
    itself when it was built, so its step meets the CFL bound and divides
    the horizon and the control period into whole steps.

    One :func:`~vslsim.ctm.fluxes` and one :func:`~vslsim.ctm.euler_update`
    call advance every row per step; being elementwise, they give each row
    the bytes it gets on its own. The history is laid out ``(B, T, C)``, so
    a row's densities are a contiguous ``(T, C)`` view. A row's inputs
    change only at step 0 and at the first step at or after each time its
    scenario names: the start of each demand-profile step and the closure's
    start and end. The bottleneck cap and drop are taken at these input
    steps. The steps run from event to event: control instants, every row's
    input steps, and the horizon. If the step at an event leaves the whole
    state unchanged, compared as bytes (so ``-0.0`` and ``0.0`` differ), the
    steps up to the next event are copies of it and are filled instead of
    computed. Flows are written to a scratch block of one control period and checked with
    the densities at each control instant and at the end.

    A row fails alone: at the controller call that raises, or that returns
    other than ``N + 1`` limits in (0, ``free_flow_speed``]
    (``ControllerError``), or by the next control instant once its state
    leaves range (``ValueError`` naming the first step and cell). The
    exception is recorded and the row set to an empty road with no demand,
    which steps without effect. A batch of one steps on a ``(C,)`` row.
    """
    if len({batch_key(s) for s in scenarios}) != 1:
        raise ValueError("a batch needs one or more scenarios with one batch_key")
    if len(controllers) != len(scenarios):
        raise ValueError(
            f"a batch needs one controller per scenario: got {len(controllers)} "
            f"controllers for {len(scenarios)} scenarios"
        )
    base = scenarios[0]
    fd = base.fd
    dt = base.dt_hours
    n_steps = int(round(base.horizon / dt))
    ctrl_every = int(round(base.control_period_hours / dt))
    n_sections = base.geometry.num_sections
    n_cells = base.geometry.num_cells
    n_rows = len(scenarios)
    jam_out = fd.outflow_jam_density

    # Everything that does not depend on the densities, once per run: (B, T).
    # The input steps come from the times a row's scenario names, whatever
    # the flows: a demand step from 0.0 to -0.0 is a change.
    times = np.arange(n_steps + 1) * dt
    demand = np.stack([s.demand.at(times) for s in scenarios])
    named = [t for s in scenarios for t in s.demand.times]
    active = np.zeros((n_rows, n_steps + 1), dtype=bool)
    for b, s in enumerate(scenarios):
        if s.incident is not None:
            active[b] = s.incident.active(times)
            named += (s.incident.start, s.incident.end)
    lc_on = active & np.array([[s.lc is not None] for s in scenarios])
    residual = np.array([0.0 if s.lc is None else s.lc.residual_drop for s in scenarios])
    input_steps = {0, *(min(bisect.bisect_left(times, t), n_steps) for t in named)}

    densities = np.empty((n_rows, n_steps + 1, n_cells))
    densities[:, 0] = [warm_state(s) for s in scenarios]
    cells = densities.view()  # what the controllers see
    cells.flags.writeable = False
    dt_over_length = dt / np.stack([s.geometry.cell_lengths() for s in scenarios])
    posted = np.full((n_rows, n_sections + 1), fd.free_flow_speed)
    caps = speed_caps(posted, n_cells, fd)
    flows = np.empty((ctrl_every, n_rows, n_cells + 1))
    changes: list[list[tuple[int, np.ndarray]]] = [[] for _ in scenarios]
    failed: list[Exception | None] = [None] * n_rows

    def fail(b: int, k: int, exc: Exception) -> None:
        failed[b] = exc
        densities[b, k] = 0.0
        demand[b, k:] = 0.0

    def check(k: int, stop: int) -> None:
        """Densities of steps ``last`` .. ``k``, flows up to ``stop`` - 1."""
        rho, q = densities[:, last : k + 1], flows[: stop - last]
        if _in_range(rho, q, jam_out):
            return
        for b in range(n_rows):
            if failed[b] is None:
                try:
                    _check_run(times, rho[b], q[:, b], fd, first=last)
                except ValueError as exc:
                    fail(b, k, exc)

    # Events: the steps at which an input may change. Control instants are
    # events, so a stretch stays inside the scratch block.
    events = sorted({*range(0, n_steps, ctrl_every), *input_steps, n_steps})

    # Per step: a (C,) row and scalars for one scenario, (B, C) and (B,) rows
    # for several; posted and caps change in place, so the views follow.
    single = n_rows == 1
    if single:
        steps, step_flows, step_demand = densities[0], flows[:, 0], demand[0]
        v, cap, dtl = posted[0], caps[0], dt_over_length[0]
    else:
        steps, step_flows, step_demand = densities.swapaxes(0, 1), flows, demand.T
        v, cap, dtl = posted, caps, dt_over_length

    last = 0  # first step whose state is not yet checked
    for k, stop in zip(events, events[1:] + [n_steps + 1]):
        if k in input_steps:
            cap_d_k, drop_k = _bottleneck(fd, active[:, k], lc_on[:, k], residual)
            if single:  # Python floats: fluxes' one-state path is float arithmetic
                cap_d_k, drop_k = cap_d_k.item(0), drop_k.item(0)
        if k % ctrl_every == 0:
            check(k, k)
            last = k
            t = k * dt
            for b, controller in enumerate(controllers):
                if failed[b] is not None:
                    continue
                try:
                    row = _check_limits(controller(cells[b, k], t), fd, n_sections + 1)
                except Exception as exc:  # noqa: BLE001 - fails this row only
                    fail(b, k, exc)
                    continue
                if not changes[b] or not np.array_equal(row, posted[b]):
                    posted[b] = row
                    changes[b].append((k, posted[b].copy()))  # row may be reused
                    caps[b] = speed_caps(row, n_cells, fd)
            if None not in failed:
                break
        d_k = step_demand[k]  # read after a failed row's demand was zeroed
        for j in range(k, stop):
            rho = steps[j]
            q = fluxes(rho, v, cap, d_k, cap_d_k, drop_k, fd, out=step_flows[j - last])
            if j == n_steps:
                break
            euler_update(rho, q, dtl, out=steps[j + 1])
            # A step that leaves the state as it was repeats up to the next
            # event. Bytes, not values: a step may turn -0.0 into 0.0.
            if j == k and j + 1 < stop and steps[j + 1].tobytes() == rho.tobytes():
                steps[j + 2 : stop + 1] = rho
                step_flows[j + 1 - last : stop - last] = q
                break
    else:
        check(n_steps, n_steps + 1)

    results: list[SimulationTrace | Exception] = []
    for b, s in enumerate(scenarios):
        if failed[b] is not None:
            results.append(failed[b])
            continue
        limit_steps, limit_rows = zip(*changes[b])
        results.append(
            SimulationTrace(
                geometry=s.geometry,
                fd=fd,
                times=times,
                densities=densities[b],
                demand=demand[b],
                incident_active=active[b],
                lc_active=lc_on[b],
                limit_steps=np.array(limit_steps),
                limit_rows=np.array(limit_rows),
                lc_residual_drop=float(residual[b]),
            )
        )
    return results

