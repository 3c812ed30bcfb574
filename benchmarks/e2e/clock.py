"""Durations corrected for the speed of a shared host.

The benchmark runs on shared machines.  Timed with a fixed Python
loop, the 2-CPU host it was written on slows by up to 1.8x in bursts
that last seconds, and the share of a 25 s run those bursts cover
varied enough to spread raw timings by 8-15% between runs.  So every
duration the benchmark reports is in *reference seconds*: the time the
interval would have taken at a reference host speed.

:class:`ReferenceClock` times a fixed probe — pure Python, no
``repro`` code, run with the garbage collector off so that its cost
does not grow with the program's heap — by the CPU time of the thread
that runs it, every :data:`PERIOD` seconds of the measured phase.
Between two probes the host speed is taken as the mean of the two; an
interval's reference duration is its wall time weighted by that speed.
The probes' own running time counts for nothing.  The CPUs slow
independently (their probe times correlate at 0.1), so work spread
over several processes is weighted by the mean speed of every CPU,
each probed in turn.

The probe still shares the CPUs and their caches with the program, so
a change that loads them harder can slow the probe and hide part of
its own cost.  ``compare.py`` therefore also compares the measured
host speed and the raw wall-clock timings of the two sides.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import os
import statistics
import time
from typing import List

#: Probe CPU seconds at the reference speed (the median of the probe on
#: a quiet 2-CPU Intel Xeon host running Python 3.11).
REFERENCE = 0.0020

#: Seconds between two probes of the measured phase.
PERIOD = 0.05


def probe_work() -> int:
    """A fixed mix of heap, dict and arithmetic work (~2 ms)."""
    heap: List[tuple] = []
    counts: dict = {}
    for i in range(3000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        counts[i & 255] = counts.get(i & 255, 0) + 1
    total = 0
    while heap:
        total += heapq.heappop(heap)[0]
    return total + len(counts)


def _speed() -> float:
    """Host speed relative to the reference, by one probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu = time.thread_time()
        probe_work()
        spent = time.thread_time() - cpu
    finally:
        if enabled:
            gc.enable()
    return REFERENCE / max(spent, 1e-9)


class ReferenceClock:
    """Maps ``time.perf_counter`` intervals to reference seconds.

    Call :meth:`tick` often (it probes at most every :data:`PERIOD`
    seconds) from one thread, and :meth:`probe` once after the last
    interval of interest has ended.  :meth:`seconds` is valid for any
    interval between the first and the last probe.  With
    ``every_cpu`` each probe runs once on every CPU the process may
    use, and the speed is their mean.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self._cpus = os.sched_getaffinity(0) if every_cpu else set()
        #: Per probe: when it started and ended, the reference seconds
        #: elapsed when it started, and the host speed it measured.
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._elapsed: List[float] = []
        self._speeds: List[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        if len(self._cpus) > 1:
            speeds = []
            for cpu in sorted(self._cpus):
                os.sched_setaffinity(0, {cpu})
                speeds.append(_speed())
            os.sched_setaffinity(0, self._cpus)
            speed = statistics.fmean(speeds)
        else:
            speed = _speed()
        end = time.perf_counter()
        elapsed = 0.0
        if self._ends:
            elapsed = self._elapsed[-1] + (start - self._ends[-1]) * (
                self._speeds[-1] + speed) / 2
        self._starts.append(start)
        self._ends.append(end)
        self._elapsed.append(elapsed)
        self._speeds.append(speed)

    def tick(self) -> None:
        if not self._ends or time.perf_counter() - self._ends[-1] \
                >= PERIOD:
            self.probe()

    def _at(self, t: float) -> float:
        """Reference seconds elapsed at ``perf_counter`` time ``t``."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0
        if t <= self._ends[i] or i + 1 == len(self._starts):
            return self._elapsed[i]
        gap = self._starts[i + 1] - self._ends[i]
        share = (t - self._ends[i]) / gap if gap > 0 else 1.0
        return self._elapsed[i] + share * (
            self._elapsed[i + 1] - self._elapsed[i])

    def seconds(self, start: float, end: float) -> float:
        """Reference duration of the interval ``[start, end]``."""
        return self._at(end) - self._at(start)

    def mean_speed(self) -> float:
        """Mean measured host speed relative to the reference."""
        return sum(self._speeds) / len(self._speeds)

    def probe_seconds(self) -> float:
        """Wall time spent probing."""
        return sum(e - s for s, e in zip(self._starts, self._ends))
