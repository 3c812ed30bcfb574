"""Stop-the-world parallel collector (the paper's "parallel GC").

    "A parallel collector interrupts all application threads prior to
    performing collection, and is well suited for high-throughput
    long-running workloads."  (paper §3.1)

When an allocation overflows the heap, the world stops: allocation is
gated, a coordinator thread forks one GC worker per core, the marking/
sweeping work is divided **equally** among the workers (static
partitioning, as the JVM collectors of the era did), and mutators
resume when all workers finish.

On an asymmetric machine the equal split makes every pause run at the
pace of the slowest core — but the pause length is *placement
independent*, which is why the paper sees only minor instability with
this collector.
"""

from __future__ import annotations

from typing import List

from repro._system import System
from repro.kernel.instructions import Compute, Join, Spawn
from repro.kernel.thread import SimThread
from repro.runtime.gc.heap import ManagedHeap

#: Collection cost: cycles per byte of heap occupancy walked.
DEFAULT_CYCLES_PER_BYTE = 20.0


class ParallelCollector:
    """Stop-the-world collector with per-core GC worker threads."""

    def __init__(self, system: System, heap: ManagedHeap,
                 cycles_per_byte: float = DEFAULT_CYCLES_PER_BYTE) -> None:
        self.system = system
        self.heap = heap
        self.n_gc_threads = system.machine.n_cores
        self.cycles_per_byte = cycles_per_byte
        heap.collector = self
        self.pauses = 0
        self.pause_time = 0.0
        self._collection_id = 0

    # ------------------------------------------------------------------
    def on_heap_full(self) -> None:
        """Begin a stop-the-world collection (idempotent while running)."""
        if self.heap.collecting:
            return
        self.heap.collecting = True
        self._collection_id += 1
        coordinator = SimThread(
            f"gc-stw-{self._collection_id}",
            self._coordinate(), daemon=True)
        self.system.kernel.spawn(coordinator)

    def _coordinate(self):
        start = self.system.now
        total_cycles = self.heap.occupancy * self.cycles_per_byte
        share = total_cycles / self.n_gc_threads
        workers: List[SimThread] = []
        for wid in range(self.n_gc_threads):
            worker = SimThread(
                f"gc-worker-{self._collection_id}-{wid}",
                self._worker(share), daemon=True)
            workers.append(worker)
        for worker in workers:
            yield Spawn(worker)
        for worker in workers:
            yield Join(worker)
        self.heap.reclaim()
        self.pauses += 1
        self.pause_time += self.system.now - start

    @staticmethod
    def _worker(cycles: float):
        yield Compute(cycles)
