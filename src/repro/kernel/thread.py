"""Simulated kernel threads.

A :class:`SimThread` wraps a generator body (see
:mod:`repro.kernel.instructions`) plus all per-thread kernel state:
run state, affinity, the partially executed instruction, and CPU-time
accounting used by the experiments (which core ran what for how long).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Any, Dict, FrozenSet, Generator, List, Optional

from repro.kernel.instructions import Instruction


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    TERMINATED = "terminated"


class SimThread:
    """A kernel-schedulable thread of execution.

    Parameters
    ----------
    name:
        Human-readable name, used in traces and deadlock reports.
    body:
        Generator yielding :class:`Instruction` objects.
    affinity:
        Optional set of core indices the thread may run on.
    daemon:
        Daemon threads do not count towards "the workload is finished"
        (used for background service threads such as a concurrent GC).

    The kernel books each retired compute slice into the per-core
    ``core_seconds`` and ``core_cycles``; ``cpu_seconds`` and
    ``cycles_retired`` are sums over those books.
    """

    def __init__(self, name: str,
                 body: Generator[Instruction, Any, Any],
                 affinity: Optional[FrozenSet[int]] = None,
                 daemon: bool = False) -> None:
        self.name = name
        self.body = body
        self.affinity: Optional[FrozenSet[int]] = (
            frozenset(affinity) if affinity is not None else None)
        self.daemon = daemon

        self.state = ThreadState.NEW
        #: Index of the core this thread last ran on (placement hint).
        self.last_core: Optional[int] = None
        #: Time the thread last executed a compute slice; used by the
        #: load balancer's cache-hotness check.
        self.last_ran_at: Optional[float] = None
        #: Core of the parent at Spawn time; Linux-2.4-style fork
        #: placement starts the child on its parent's core.
        self.spawn_core_hint: Optional[int] = None
        #: The in-flight instruction, if any.
        self.current_instruction: Optional[Instruction] = None
        #: Cycles still to retire for an in-flight Compute.
        self.remaining_cycles = 0.0
        #: Value to send into the generator at the next resume.
        self.send_value: Any = None
        #: CPU seconds consumed from the current scheduling quantum;
        #: accumulates across instructions, reset on requeue/wakeup.
        self.quantum_used = 0.0
        #: Return value of the body once terminated.
        self.return_value: Any = None
        #: Threads blocked in Join() on this thread.
        self.joiners: List["SimThread"] = []
        #: Why the thread is blocked (debugging / deadlock reports).
        self.block_reason: Optional[str] = None
        #: Time the thread last became READY (scheduling-latency
        #: histogram origin).
        self.ready_at = 0.0
        #: Open ``"block"`` timeline span while blocked/sleeping, or
        #: None (ended by the kernel on wakeup).
        self.block_span: Optional[Any] = None
        #: Spin-kind mutex this thread is busy-waiting on, or None.
        #: While set, the thread's in-flight instruction is a ``Lock``
        #: but ``remaining_cycles`` holds the rest of the current spin
        #: burst — the kernel re-checks the lock each time it drains.
        self.spin_lock: Optional[Any] = None
        #: Times an AsymMutex release skipped this waiter for a
        #: fast-core one; reset on grant (fairness backstop).
        self.lock_bypasses = 0
        #: One-shot placement override consumed by the next wakeup
        #: (AsymMutex critical-section migration); bypasses the
        #: scheduler's ``place`` when the hinted core is still free.
        self.wake_core_hint: Optional[int] = None

        # -------------------------- accounting -------------------------
        self.spawn_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.migrations = 0
        self.preemptions = 0
        #: Busy seconds broken down by core index.
        self.core_seconds: Dict[int, float] = defaultdict(float)
        #: Cycles retired broken down by core index (feeds the
        #: per-speed-class split in :mod:`repro.metrics`).
        self.core_cycles: Dict[int, float] = defaultdict(float)

    # ------------------------------------------------------------------
    @property
    def terminated(self) -> bool:
        return self.state is ThreadState.TERMINATED

    def allowed_on(self, core_index: int) -> bool:
        """May this thread execute on the given core?"""
        return self.affinity is None or core_index in self.affinity

    @property
    def cpu_seconds(self) -> float:
        """Busy seconds on every core: the sum of ``core_seconds``."""
        return sum(self.core_seconds.values(), 0.0)

    @property
    def cycles_retired(self) -> float:
        """Cycles retired on every core: the sum of ``core_cycles``."""
        return sum(self.core_cycles.values(), 0.0)

    def lifetime(self) -> Optional[float]:
        """Spawn-to-finish wall time, if the thread has terminated."""
        if self.spawn_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.spawn_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimThread({self.name!r}, state={self.state.value})"
