"""Lock-contention microbenchmark (DESIGN.md §11).

A population of identical worker threads loops::

    outside work  →  Lock  →  critical section  →  Unlock

with the lock kind selectable per run.  The workload isolates the
slow-holder pathology the paper's asymmetric configurations induce in
lock-based code: whenever the critical-section holder lands on (or is
throttled onto) a slow core, every other thread's progress is gated by
the slow core's rate.  ``fig12`` sweeps lock kinds and fault storms
over this workload; the lock-property test suite uses it as the
smallest lock-heavy simulation that exercises every handoff path.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._system import System
from repro.kernel.instructions import Compute, Lock, Unlock
from repro.kernel.sync import LOCK_KINDS, make_lock
from repro.kernel.thread import SimThread
from repro.workloads.base import Workload


class _Counter:
    """Shared completed-section counter."""

    def __init__(self) -> None:
        self.sections = 0


class LockStress(Workload):
    """N threads hammering one shared lock.

    Parameters
    ----------
    n_threads:
        Worker population (oversubscribe the machine to force
        contention; the default saturates every standard config).
    lock_kind:
        One of :data:`repro.kernel.sync.LOCK_KINDS`.
    outside_cycles:
        Mean non-critical work per iteration (fast-core cycles).
    critical_cycles:
        Critical-section length (fast-core cycles).  The
        ``critical_fraction`` of total work — here ~20% — controls how
        hard a slow holder gates the population.
    duration:
        Simulated seconds to run; throughput is sections/second over
        the whole run (no warmup — the loop reaches steady state
        within a few iterations).
    jitter:
        Relative jitter on the outside work (decorrelates arrivals).
    lock_kwargs:
        Extra keyword arguments forwarded to
        :func:`repro.kernel.sync.make_lock` (e.g. ``migrate=False``
        for an :class:`~repro.kernel.sync.AsymMutex` without
        critical-section migration).
    """

    name = "LockStress"
    primary_metric = "throughput"
    higher_is_better = True

    def __init__(self, n_threads: int = 12,
                 lock_kind: str = "fifo",
                 outside_cycles: float = 400e3,
                 critical_cycles: float = 100e3,
                 duration: float = 1.0,
                 jitter: float = 0.05,
                 lock_kwargs: Optional[dict] = None) -> None:
        if n_threads < 1:
            raise ValueError("need at least one thread")
        if lock_kind not in LOCK_KINDS:
            raise ValueError(
                f"lock_kind must be one of {LOCK_KINDS}, got {lock_kind!r}")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.n_threads = n_threads
        self.lock_kind = lock_kind
        self.outside_cycles = outside_cycles
        self.critical_cycles = critical_cycles
        self.duration = duration
        self.jitter = jitter
        self.lock_kwargs = dict(lock_kwargs or {})

    # ------------------------------------------------------------------
    def _worker_body(self, rng, lock, counter: _Counter):
        while True:
            yield Compute(rng.jitter(self.outside_cycles, self.jitter))
            yield Lock(lock)
            yield Compute(self.critical_cycles)
            yield Unlock(lock)
            counter.sections += 1

    # ------------------------------------------------------------------
    def simulate(self, system: System) -> Dict[str, float]:
        lock = make_lock(self.lock_kind, "stress", **self.lock_kwargs)
        counter = _Counter()
        rng = system.sim.stream("lockstress.work")
        for wid in range(self.n_threads):
            system.kernel.spawn(SimThread(
                f"locker-{wid}",
                self._worker_body(rng, lock, counter),
                daemon=True))
        system.run(until=self.duration)

        throughput = counter.sections / self.duration
        system.counters.incr("lockstress.sections", float(counter.sections))
        return {
            "throughput": throughput,
            "sections": float(counter.sections),
            "contended_acquires": float(lock.contention_count),
            "max_queue_depth": float(lock.max_queue_depth),
        }
