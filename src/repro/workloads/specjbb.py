"""SPECjbb2000 model (paper §3.1).

SPECjbb is a server-side Java OLTP benchmark: each *warehouse* is a
terminal thread issuing business transactions against a memory-resident
backend; throughput in business operations per second is the metric.
Concurrency rises with the warehouse count.

The model captures the structure the paper's analysis identified as
decisive:

* warehouse threads are CPU-bound transaction loops that allocate on
  every transaction;
* a managed runtime (JRockit or HotSpot preset) collects garbage with
  either a stop-the-world **parallel** collector or a single-threaded
  generational **concurrent** collector;
* when allocation outruns collection, every mutator stalls until the
  collector catches up — and how badly collection lags depends on
  which core the kernel happened to give the collector thread.

That last interaction is the paper's Figure 1/2 story: unstable
throughput on asymmetric machines with the concurrent collector under
the stock scheduler, fixed by the asymmetry-aware kernel.
"""

from __future__ import annotations

from typing import Dict

from repro._system import System
from repro.kernel.instructions import Compute, Lock, Unlock
from repro.kernel.sync import Mutex, make_lock
from repro.kernel.thread import SimThread
from repro.runtime.jvm import VM_PRESETS, GCKind, ManagedRuntime
from repro.workloads.base import Workload

MB = 1e6


class _Counter:
    """Shared transaction counter with a warmup snapshot."""

    def __init__(self) -> None:
        self.transactions = 0
        self.at_warmup_end = 0


class SpecJBB(Workload):
    """SPECjbb2000 behavioural model.

    Parameters
    ----------
    warehouses:
        Number of terminal threads (concurrency knob; the paper sweeps
        1-20).
    vm:
        "jrockit" or "hotspot" preset.
    gc:
        Collector family (paper studies both).
    measurement_seconds / warmup_seconds:
        Simulated steady-state window; throughput is measured after
        warmup.
    lock_kind:
        Kind of the shared transaction-log lock ("fifo"/"spin"/"mcs"/
        "asym", DESIGN.md §11).
    log_batch:
        Transactions appended to a warehouse's local log buffer
        between flushes.  Commits are batched (as real transaction
        logs do) so the lock perturbs scheduling only at flush
        granularity; ``1`` locks on every transaction.
    """

    name = "SPECjbb"
    primary_metric = "throughput"
    higher_is_better = True
    #: Mean CPU work per business operation (fast-core cycles),
    #: jittered per operation by ``transaction_jitter``.
    transaction_cycles = 2.8e6
    transaction_jitter = 0.05
    #: Heap bytes allocated per operation (GC pressure knob).
    allocation_per_transaction = 15e3
    #: Heap geometry handed to the VM preset.
    heap_capacity = 24 * MB
    live_bytes = 8 * MB
    #: Critical-section length of one log-buffer flush (fast-core cycles).
    log_cycles = 40e3

    def __init__(self, warehouses: int = 8,
                 vm: str = "jrockit",
                 gc: GCKind = GCKind.CONCURRENT,
                 measurement_seconds: float = 2.0,
                 warmup_seconds: float = 0.3,
                 lock_kind: str = "fifo",
                 log_batch: int = 32) -> None:
        if warehouses < 1:
            raise ValueError("need at least one warehouse")
        if log_batch < 1:
            raise ValueError("log_batch must be >= 1")
        self.warehouses = warehouses
        self.vm = vm
        self.gc = gc
        self.measurement_seconds = measurement_seconds
        self.warmup_seconds = warmup_seconds
        self.lock_kind = lock_kind
        self.log_batch = log_batch

    # ------------------------------------------------------------------
    def _build_vm(self, system) -> ManagedRuntime:
        factory = VM_PRESETS.get(self.vm)
        if factory is None:
            raise ValueError(f"unknown VM preset {self.vm!r}")
        return factory(system, gc=self.gc,
                       heap_capacity=self.heap_capacity,
                       live_bytes=self.live_bytes)

    def _warehouse_body(self, rng, vm: ManagedRuntime, counter: _Counter,
                        log_lock: Mutex):
        buffered = 0
        while True:
            yield Compute(rng.jitter(self.transaction_cycles,
                                     self.transaction_jitter))
            yield from vm.allocate(self.allocation_per_transaction)
            buffered += 1
            if buffered >= self.log_batch:
                # Flush the local log buffer to the shared transaction
                # log.  Every warehouse serializes here, so a slow-core
                # holder stalls the whole terminal population
                # (DESIGN.md §11).
                buffered = 0
                yield Lock(log_lock)
                yield Compute(self.log_cycles)
                yield Unlock(log_lock)
            counter.transactions += 1

    # ------------------------------------------------------------------
    def simulate(self, system: System) -> Dict[str, float]:
        vm = self._build_vm(system)
        counter = _Counter()
        rng = system.sim.stream("specjbb.tx")
        log_lock = make_lock(self.lock_kind, "jbb-txlog")
        for wid in range(self.warehouses):
            system.kernel.spawn(SimThread(
                f"warehouse-{wid}",
                self._warehouse_body(rng, vm, counter, log_lock),
                daemon=True))

        def snapshot_warmup():
            counter.at_warmup_end = counter.transactions

        system.sim.schedule_fast(self.warmup_seconds, snapshot_warmup)
        end = self.warmup_seconds + self.measurement_seconds
        system.run(until=end)

        measured = counter.transactions - counter.at_warmup_end
        throughput = measured / self.measurement_seconds
        system.counters.incr("specjbb.transactions", float(measured))
        return {
            "throughput": throughput,
            "transactions": float(measured),
            "gc_stall_time": vm.stall_time,
            "gc_stalls": float(vm.stall_count),
            "gc_collections": float(vm.collections),
        }
