"""Machine-speed probe: a fixed kernel timed next to and during every
measured interval.

The benchmark runs on a few cores of a shared host. Other tenants slow the
cores down by 20-70% for minutes at a time, which moves every wall time of a
run with no change to the code. The probe runs a small kernel of the same
kind of work the program does -- numpy on arrays of a few dozen cells inside
a Python loop, list comprehensions over floats, float formatting and string
joins, and a sort of a few megabytes of array -- whose own code never
changes. The kernel is timed just before and just after an interval and,
for an operation, once every ``INTERVAL_S`` while it runs (``Sampler``). The
interval is reported at the reference speed: its own time times
``REFERENCE_S`` over the mean kernel time measured around and during it. On
a machine where the kernel takes ``REFERENCE_S``, the reported time is the
wall time. A change to the program moves the reported time; a change in the
machine's load moves the kernel as well and mostly cancels.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Probe time (s) that defines the reference speed: the fastest probe seen on
# the 2-vCPU Xeon VM where the benchmark was calibrated (README.md).
REFERENCE_S = 0.020

# Repetitions per probe. Their mean is kept, not the fastest: load from other
# tenants comes in bursts shorter than an operation, and an operation pays
# for the bursts in proportion to their share of its time, as the mean does.
REPEATS = 4

# Wall seconds between two kernel runs inside an operation.
INTERVAL_S = 0.5

_STEPS = 600
_CELLS = 26
# Larger than a core's private caches, as a simulation trace is. Allocated
# once, so a probe during an operation does not add to its peak memory.
_LARGE = np.arange(250_000, dtype=float)


def _array_steps() -> None:
    rho = np.linspace(20.0, 45.0, _CELLS)
    speed = np.full(_CELLS, 100.0)
    for _ in range(_STEPS):
        send = np.minimum(speed[:-1] * rho[:-1], 7200.0)
        receive = np.minimum(7200.0, 30.0 * (312.0 - rho[1:]))
        flow = np.minimum(send, receive)
        new = rho.copy()
        new[1:-1] += (flow[:-1] - flow[1:]) * (0.5 / 3600.0 / 0.4)
        if np.any(new < -1e-9):
            raise ArithmeticError("probe kernel went negative")
        rho = new


def _scalar_rows() -> int:
    rho = [20.0 + i for i in range(_CELLS)]
    rows = []
    for _ in range(_STEPS):
        speeds = [min(100.0, 30.0 * (312.0 / max(r, 1e-9) - 1.0)) for r in rho]
        rows.append(",".join(f"{v:.6g}" for v in speeds))
    lengths: dict[int, int] = {}
    for i, row in enumerate(rows):
        lengths[i % 97] = lengths.get(i % 97, 0) + len(row)
    return sum(lengths.values())


def _large_array() -> None:
    # The array stays in ascending order, so every call does the same work:
    # two passes and a sort's pass over it, in place.
    values = _LARGE
    values *= 1.0001
    values += 1.0
    values.sort()


def _kernel() -> None:
    _array_steps()
    _scalar_rows()
    _large_array()


def probe() -> float:
    """Seconds the kernel takes now: the mean of ``REPEATS`` runs."""
    t0 = perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return (perf_counter() - t0) / REPEATS


def warm_up() -> None:
    """Run the kernel once untimed, so the first probe of a process does not
    count first-call costs (page faults, caches) as a slow machine."""
    _kernel()


class Sampler:
    """Times the kernel once every ``INTERVAL_S`` while an operation runs.

    A ``SIGALRM`` handler runs the kernel between two bytecodes of the
    operation, so probes cover a long operation evenly, not only its ends.
    ``paused_s`` is the time the handler took, which the caller subtracts
    from the operation's wall time. Use as a context manager around one
    operation; each entry starts afresh.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused_s = 0.0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            _kernel()
            elapsed = perf_counter() - t0
        finally:
            self._busy = False
        self.samples.append(elapsed)
        self.paused_s += elapsed

    def __enter__(self) -> "Sampler":
        self.samples, self.paused_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference(wall_s: float, probes: list[float]) -> float:
    """``wall_s`` rescaled to the reference speed, by the mean of the kernel
    times measured around and during the interval."""
    return wall_s * REFERENCE_S / statistics.fmean(probes)
