"""A clock in reference seconds, for timing on a noisy shared host.

On a shared virtual machine one vCPU's speed drifts by tens of percent
over tens of seconds, and the vCPUs drift apart, so a wall-clock sample
measures the host about as much as the program. A ``HostClock`` runs a
fixed calibration loop on the timed process's own CPU when it starts,
then every ``INTERVAL_S`` from a SIGALRM handler (the program is
paused, not changed), and whenever ``calibrate`` is called. It turns
wall time into *reference seconds*: each stretch of wall time between
two calibrations counts ``REFERENCE_S`` over the mean duration of those
two calibrations, and the calibrations themselves count as nothing. The
same work done in a fast phase or a slow phase of the host then reads
about the same; less work reads less.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import Callable, List, Tuple

#: Seconds between calibrations while the clock runs.
INTERVAL_S = 0.75
#: Iterations of one calibration loop.
LOOPS = 250_000
#: A calibration's duration at the reference speed: about its duration
#: with CPython 3.11 on a quiet 2-vCPU shared host. One reference second
#: is one wall second at that speed and less on a busier host.
REFERENCE_S = 0.04

_TABLE = {key: key * 7 for key in range(1 << 15)}


def spin(loops: int = LOOPS) -> int:
    """The calibration loop: interpreter dispatch, integer arithmetic
    and dict lookups over a table larger than the L1 cache. Of the
    loops tried (this one, object allocation and sorting, numpy gathers
    over 16 MiB, and mixes of them), it tracked the pipeline's speed
    best."""
    table = _TABLE
    total = 0
    for index in range(loops):
        total += table[(index * 40503) & 0x7FFF]
    return total


class HostClock:
    """Periodic calibration of the current CPU; a context manager that
    starts and stops the periodic part. Only one may run at a time in a
    process (it owns SIGALRM)."""

    def __init__(
        self,
        interval: float = INTERVAL_S,
        work: Callable[[], object] = spin,
        clock: Callable[[], float] = time.monotonic,
        cpu: Callable[[], float] = time.process_time,
    ) -> None:
        self.interval = interval
        self.work = work
        self.clock = clock
        self.cpu_clock = cpu
        #: (start, end) wall times of every calibration, in order.
        self.calibrations: List[Tuple[float, float]] = []
        #: CPU seconds spent calibrating.
        self.cpu = 0.0
        self._busy = False
        self._previous = None
        self._built = 0
        self._starts: List[float] = []
        self._table: List[Tuple[float, float]] = []

    def calibrate(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            cpu0 = self.cpu_clock()
            start = self.clock()
            self.work()
            end = self.clock()
            self.cpu += self.cpu_clock() - cpu0
            self.calibrations.append((start, end))
        finally:
            self._busy = False

    def __enter__(self) -> "HostClock":
        self.calibrate()
        self._previous = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.calibrate()
        )
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.calibrate()

    def position(self, t: float) -> float:
        """Reference seconds from the first calibration's start to wall
        time ``t`` (negative before it). Stretches before the first and
        after the last calibration count at that calibration's speed."""
        if self._built != len(self.calibrations):
            self._build_table()
        index = bisect.bisect_right(self._starts, t) - 1
        if index < 0:
            first_start, first_end = self.calibrations[0]
            return (t - first_start) * REFERENCE_S / (first_end - first_start)
        offset, rate = self._table[index]
        return offset + (t - self._starts[index]) * rate

    def reference(self, t0: float, t1: float) -> float:
        """Reference seconds between wall times ``t0`` and ``t1``."""
        return self.position(t1) - self.position(t0)

    def _build_table(self) -> None:
        """The piecewise-linear map: a segment per calibration (rate 0)
        and per gap after it, each with its start, the position there
        and its rate."""
        durations = [end - start for start, end in self.calibrations]
        self._starts, self._table = [], []
        offset = 0.0
        for index, (start, end) in enumerate(self.calibrations):
            if index + 1 < len(durations):
                mean = (durations[index] + durations[index + 1]) / 2
                rate = REFERENCE_S / mean
                gap = self.calibrations[index + 1][0] - end
            else:
                rate, gap = REFERENCE_S / durations[index], 0.0
            self._starts += [start, end]
            self._table += [(offset, 0.0), (offset, rate)]
            offset += gap * rate
        self._built = len(self.calibrations)
