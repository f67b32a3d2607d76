"""Machine-speed calibration for the end-to-end times.

On a few cores of a shared host the speed of plain Python changes with the
load of the other tenants, in phases of a second or more: a fixed 9-ms slice
of work took 5.6 ms in one phase and 11.6 ms in the next, in process time as
well as in wall time, so it is the processor that slows, not the scheduler.
Ten runs of one workload spread by up to a quarter between quartiles.  The
benchmark therefore samples the speed while it measures and reports the
in-process item times and the cold starts at the speed where one slice takes
``REF_SLICE_S``::

    reported = measured * REF_SLICE_S / (median slice time around the item)

In-process rounds sample from a ``SIGALRM`` timer every ``PERIOD_S`` of wall
time, inside the items too, and take the time of the samples out of the
item.  The cold starts sample between the calls, since a slice run beside a
child would slow it.  The slice is benchmark code and calls nothing in
qtheta, so a change to the program moves the measured time and not the
slice.  The calls of ``cli-cold`` are reported as measured: in ten runs its
sweep spread by 4% measured and by 18% scaled by slices taken between the
calls, so a slice in the parent does not follow the speed of its children
(a bare interpreter start as the probe did worse still).
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

perf_counter = time.perf_counter

#: slice time that a reported second is scaled to; about the median on the
#: 2-vCPU machine the README's figures come from
REF_SLICE_S = 0.009
#: the timer's period, and how far before and after an item the samples
#: that scale it may lie
PERIOD_S = 0.2
WINDOW_S = 0.5
#: slices taken by one mark between child processes
MARK_SLICES = 2


def calibration_slice() -> float:
    """Wall time of one fixed slice of the kinds of work qtheta does:
    ``Fraction`` and big-integer arithmetic, dict and list updates.  The
    collector is off during the slice, so the size of the heap the program
    left does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        coeffs: dict[int, int] = {}
        acc = Fraction(0)
        big = 1
        for i in range(1, 2000):
            coeffs[i % 61] = coeffs.get(i % 61, 0) + i * i
            acc += Fraction(i % 13, i % 7 + 1)
            big = (big * 1000003 + i) % (1 << 521)
        sorted(coeffs.values())
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Speed samples and timed items of one round.

    Time an item with ``begin()`` and ``end(start)``; take samples with
    ``mark()`` between items or with ``sampling()`` around the round.
    ``scale()`` then gives each item's time at reference speed."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, slice seconds)
        self.items: list[tuple[float, float, float]] = []  # (start, end, measured)

    def mark(self, count: int = MARK_SLICES):
        for _ in range(count):
            start = perf_counter()
            self.samples.append((start, calibration_slice()))

    @contextmanager
    def sampling(self):
        """Take one sample every ``PERIOD_S`` of wall time, from a timer
        signal that interrupts the running item between bytecodes."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.mark(1))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, lo: float, hi: float) -> list[float]:
        """Slice times of the samples that began in [lo, hi)."""
        i = bisect.bisect_left(self.samples, lo, key=lambda sample: sample[0])
        j = bisect.bisect_left(self.samples, hi, key=lambda sample: sample[0])
        return [s for _, s in self.samples[i:j]]

    def begin(self) -> float:
        return perf_counter()

    def end(self, start: float) -> float:
        """The item's wall time less the samples taken inside it; a sample
        runs to its end before the item goes on."""
        end = perf_counter()
        measured = end - start - sum(self._between(start, end))
        self.items.append((start, end, measured))
        return measured

    def local_slices(self) -> list[float]:
        """For each item, the median slice time of the samples that began
        within ``WINDOW_S`` of it, or of the nearest sample when none did."""
        out = []
        for start, end, _ in self.items:
            near = self._between(start - WINDOW_S, end + WINDOW_S)
            if not near:
                mid = (start + end) / 2
                near = [min(self.samples, key=lambda sample: abs(sample[0] - mid))[1]]
            out.append(statistics.median(near))
        return out

    def scale(self) -> list[float]:
        """Each item's measured time at reference speed."""
        return [measured * REF_SLICE_S / local
                for (_, _, measured), local in zip(self.items, self.local_slices())]
