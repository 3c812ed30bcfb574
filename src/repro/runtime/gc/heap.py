"""A managed heap with allocation-pressure dynamics.

The SPECjbb instability in the paper (Figure 1) is driven by the
interaction of mutator allocation with garbage collection on unequal
cores.  The model:

* Mutators allocate at transaction boundaries; allocations are
  zero-time until the heap fills.
* When an allocation would overflow the capacity (or a stop-the-world
  collection is in progress) the mutator **stalls** off-CPU until the
  collector reclaims space.
* A collector (see :mod:`repro.runtime.gc.parallel` and
  :mod:`repro.runtime.gc.concurrent`) reduces occupancy back to the
  live set and wakes stalled mutators.

The heap tracks stall counts/time — the observable that turns into
throughput variance in the experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro._system import System
from repro.errors import WorkloadError
from repro.kernel.instructions import Acquire, GetTime
from repro.kernel.sync import Semaphore


class ManagedHeap:
    """Occupancy-tracking heap shared by mutators and a collector.

    Parameters
    ----------
    system:
        The simulated platform (for timestamps and wakeups).
    capacity_bytes:
        Total heap size.
    live_bytes:
        Steady-state live set; collections reclaim everything above it.
    trigger_fraction:
        Occupancy fraction at which a concurrent collector starts a
        cycle (headroom below 1.0 is what lets collection overlap
        mutation).
    """

    def __init__(self, system: System, capacity_bytes: float,
                 live_bytes: float,
                 trigger_fraction: float = 0.75) -> None:
        if capacity_bytes <= 0:
            raise WorkloadError("heap capacity must be positive")
        if not 0 <= live_bytes < capacity_bytes:
            raise WorkloadError(
                "live set must be within [0, capacity)")
        if not 0.0 < trigger_fraction <= 1.0:
            raise WorkloadError("trigger fraction must be in (0, 1]")
        self.system = system
        self.capacity_bytes = float(capacity_bytes)
        self.live_bytes = float(live_bytes)
        self.trigger_fraction = trigger_fraction
        self.occupancy = float(live_bytes)
        #: True while a stop-the-world collection blocks allocation.
        self.collecting = False
        #: Collector hook invoked (in kernel context) on overflow.
        self.collector: Optional[object] = None
        self._waiters: Deque[Tuple[Semaphore, float]] = deque()

        # ------------------------------ stats -------------------------
        self.bytes_allocated = 0.0
        self.allocation_count = 0
        self.stall_count = 0
        self.stall_time = 0.0
        self.collections = 0

    # ------------------------------------------------------------------
    @property
    def trigger_bytes(self) -> float:
        """Occupancy at which a concurrent collection should start."""
        return self.capacity_bytes * self.trigger_fraction

    def has_room(self, nbytes: float) -> bool:
        return self.occupancy + nbytes <= self.capacity_bytes

    # ------------------------------------------------------------------
    def allocate(self, nbytes: float):
        """Generator performing a (possibly stalling) allocation.

        Use from a thread body as ``yield from heap.allocate(n)``.
        """
        max_single = self.capacity_bytes - self.live_bytes
        if nbytes > max_single:
            raise WorkloadError(
                f"allocation of {nbytes} can never fit "
                f"(capacity {self.capacity_bytes}, live {self.live_bytes})")
        self.allocation_count += 1
        self.bytes_allocated += nbytes
        while self.collecting or not self.has_room(nbytes):
            if not self.collecting and self.collector is not None:
                # Overflow with no collection running: ask the
                # collector (a stop-the-world collector starts a cycle;
                # a concurrent one is already behind and will catch up).
                self.collector.on_heap_full()
            stall_start = yield GetTime()
            gate = Semaphore(0, name="heap-stall")
            self._waiters.append((gate, stall_start))
            self.stall_count += 1
            self.system.counters.incr("gc.stalls")
            yield Acquire(gate)
            stall_end = yield GetTime()
            self.stall_time += stall_end - stall_start
            self.system.counters.incr("gc.stall_seconds",
                                      stall_end - stall_start)
        self.occupancy += nbytes

    def reclaim(self) -> float:
        """Collapse occupancy to the live set; wake stalled mutators.

        Returns the number of bytes reclaimed.  Must be called from
        kernel/driver context (a collector thread body or an event
        callback).
        """
        reclaimed = self.occupancy - self.live_bytes
        self.occupancy = self.live_bytes
        self.collecting = False
        self.collections += 1
        kernel = self.system.kernel
        counters = kernel.metrics.counters
        counters.incr("gc.collections")
        counters.incr("gc.bytes_reclaimed", reclaimed)
        while self._waiters:
            gate, _ = self._waiters.popleft()
            kernel.semaphore_release(gate)
        return reclaimed

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ManagedHeap({self.occupancy / 1e6:.1f}MB / "
                f"{self.capacity_bytes / 1e6:.1f}MB, "
                f"stalls={self.stall_count})")
