"""Generational concurrent collector (the paper's "gen. concurrent GC").

    "The generational concurrent collector runs concurrently with the
    application, reclaiming objects.  This collector is well suited
    for applications requiring minimal pause times and those that are
    unaffected by the collector's interference."  (paper §3.1)

A single dedicated collector thread watches heap occupancy; when it
crosses the trigger level the thread performs a collection cycle
(compute proportional to occupancy) and then reclaims.  The collector
competes with mutators for cores:

* On a **fast** core the cycle completes before the headroom above the
  trigger fills, and mutators never stall.
* On a **slow** core collection falls behind allocation, the heap
  fills, and every mutator stalls until the crawl finishes.

Which of those two regimes a run lands in depends on where the kernel
scheduler happened to place the collector thread — the modelled source
of the Figure 1(b) run-to-run variance.  The paper's asymmetry-aware
scheduler fixes it because stalled mutators idle the fast cores, and
an idle fast core pulls the collector off the slow one.
"""

from __future__ import annotations

from repro._system import System
from repro.kernel.instructions import Compute, Sleep
from repro.kernel.thread import SimThread
from repro.runtime.gc.heap import ManagedHeap

#: Collection cost: cycles per byte of heap occupancy walked.  Higher
#: than the parallel collector's (concurrent marking does extra work
#: for safe interleaving with mutators).
DEFAULT_CYCLES_PER_BYTE = 28.0

#: How often the idle collector re-checks occupancy.
DEFAULT_POLL_INTERVAL = 0.002


class ConcurrentCollector:
    """Single-threaded concurrent collector daemon."""

    def __init__(self, system: System, heap: ManagedHeap,
                 cycles_per_byte: float = DEFAULT_CYCLES_PER_BYTE,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 name: str = "gc-concurrent") -> None:
        self.system = system
        self.heap = heap
        self.cycles_per_byte = cycles_per_byte
        self.poll_interval = poll_interval
        heap.collector = self
        self.cycles_completed = 0
        self.thread = SimThread(name, self._body(), daemon=True)
        system.kernel.spawn(self.thread)

    # ------------------------------------------------------------------
    def on_heap_full(self) -> None:
        """Mutator overflowed: nothing to do — the collector thread is
        already behind and will reclaim when its cycle finishes."""

    def _body(self):
        heap = self.heap
        machine = self.system.machine
        counters = self.system.kernel.metrics.counters
        while True:
            if heap.occupancy >= heap.trigger_bytes:
                work = heap.occupancy * self.cycles_per_byte
                yield Compute(work)
                # Where the collection finished is the paper's decisive
                # mechanism: a cycle crawling on a slow core is what
                # lets allocation outrun reclamation.
                core = machine.cores[self.thread.last_core]
                speed = "fast" if machine.is_fast(core) else "slow"
                counters.incr(f"gc.cycles_on_{speed}_core")
                heap.reclaim()
                self.cycles_completed += 1
            else:
                yield Sleep(self.poll_interval)
