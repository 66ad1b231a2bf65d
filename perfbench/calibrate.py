"""Machine-speed calibration for the end-to-end times.

The machine this benchmark was built on runs the same Python code up to twice
as fast at one moment as a few tens of milliseconds later, in CPU time as much
as in wall time, so raw medians of runs made minutes apart disagree by 20 to
30 %.  A fixed unit of pure-Python work (walking a prebuilt tree of frozen
dataclasses with pattern matching, the kind of work trikernel does, without
allocating) is timed every PERIOD_S seconds from a timer signal, so samples
fall inside the operations, and in a burst between operations.  Each
operation's time is rescaled by the median unit time sampled while it ran
(or, for an operation too short to hold MIN_SAMPLES, by the MIN_SAMPLES
nearest ones), so
that reported times read as milliseconds on a machine where one unit takes
REFERENCE_MS.  The unit's code is part of the benchmark and does not change
with trikernel.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

REFERENCE_MS = 0.25  # one unit on a 2.1 GHz Xeon vCPU, between its fast and slow states
PERIOD_S = 0.01  # timer interval between samples while operations run
BURST = 4  # units taken between two operations
MIN_SAMPLES = 4


@dataclass(frozen=True)
class _Node:
    tag: int
    lhs: object
    rhs: object


def _build(depth: int, tag: int):
    if not depth:
        return tag
    return _Node(tag, _build(depth - 1, 2 * tag), _build(depth - 1, 2 * tag + 1))


def _walk(term, seen: dict) -> int:
    match term:
        case _Node(tag, lhs, rhs):
            seen[tag % 61] = seen.get(tag % 61, 0) + 1
            return _walk(lhs, seen) + _walk(rhs, seen)
        case _:
            return term


_TREE = _build(8, 1)


class Clock:
    """Calibration units taken along a run, and the rescaling they imply."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter seconds, in order
        self.ends: list[float] = []
        self._busy = False

    def _unit(self) -> None:
        if self._busy:  # a timer signal arrived during a unit
            return
        self._busy = True
        try:
            start = time.perf_counter()
            _walk(_TREE, {})
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
        finally:
            self._busy = False

    def between(self) -> None:
        """A burst of units between two operations."""
        for _ in range(BURST):
            self._unit()

    @contextmanager
    def sampling(self):
        """Take a unit from a timer signal every PERIOD_S within the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._unit())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def rescale(self, start: float, end: float, inline: bool) -> float:
        """Reference-speed duration of an operation that ran from start to end.

        With `inline`, the operation ran in this process, so the units the
        timer took inside it delayed it and are taken off its time; a child
        process is not delayed by its parent's units.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        while hi > lo and self.ends[hi - 1] > end:
            hi -= 1
        units = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        took = end - start - (sum(units) if inline else 0.0)
        if len(units) < MIN_SAMPLES:
            j = bisect.bisect_left(self.starts, (start + end) / 2) - MIN_SAMPLES // 2
            j = max(0, min(j, len(self.starts) - MIN_SAMPLES))
            units = [e - s for s, e in zip(self.starts[j:j + MIN_SAMPLES],
                                           self.ends[j:j + MIN_SAMPLES])]
        return took * REFERENCE_MS / 1000.0 / statistics.median(units)

    def scale(self) -> float:
        """Factor from wall time to reference time over the whole run."""
        units = [e - s for s, e in zip(self.starts, self.ends)]
        return REFERENCE_MS / 1000.0 / statistics.median(units)
