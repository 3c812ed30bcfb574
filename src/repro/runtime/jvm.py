"""Managed-runtime (JVM) façade: heap + collector + presets.

The paper studies two virtual machines — BEA JRockit 8.1 and Sun
HotSpot 1.4.2 — each with a parallel and a generational concurrent
collector.  We model a VM as a heap sized/tuned per preset plus one of
the two collectors.  The presets differ in collector efficiency (the
HotSpot 1.4 concurrent collector was markedly less efficient than
JRockit's, which is why Figure 1(a) shows larger absolute variance for
HotSpot).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro._system import System
from repro.runtime.gc.concurrent import (
    DEFAULT_POLL_INTERVAL,
    ConcurrentCollector,
)
from repro.runtime.gc.heap import ManagedHeap
from repro.runtime.gc.parallel import ParallelCollector

MB = 1e6


class GCKind(enum.Enum):
    """The two collector families studied in paper §3.1."""

    PARALLEL = "parallel"
    CONCURRENT = "generational-concurrent"


class ManagedRuntime:
    """A virtual machine instance bound to a simulated system.

    Parameters
    ----------
    system:
        Platform to run on.
    gc:
        Collector family.
    heap_capacity / live_bytes / trigger_fraction:
        Heap geometry (see :class:`~repro.runtime.gc.heap.ManagedHeap`).
    gc_cycles_per_byte:
        Collector cost; None picks the family default.
    name:
        VM name for traces ("jrockit", "hotspot", ...).
    """

    def __init__(self, system: System,
                 gc: GCKind = GCKind.PARALLEL,
                 heap_capacity: float = 64 * MB,
                 live_bytes: float = 16 * MB,
                 trigger_fraction: float = 0.7,
                 gc_cycles_per_byte: Optional[float] = None,
                 name: str = "jvm") -> None:
        self.system = system
        self.gc_kind = gc
        self.name = name
        self.heap = ManagedHeap(system, heap_capacity, live_bytes,
                                trigger_fraction)
        if gc is GCKind.PARALLEL:
            self.collector = ParallelCollector(
                system, self.heap,
                **({} if gc_cycles_per_byte is None
                   else {"cycles_per_byte": gc_cycles_per_byte}))
        else:
            self.collector = ConcurrentCollector(
                system, self.heap,
                poll_interval=DEFAULT_POLL_INTERVAL,
                **({} if gc_cycles_per_byte is None
                   else {"cycles_per_byte": gc_cycles_per_byte}),
                name=f"{name}-gc")

    # ------------------------------------------------------------------
    def allocate(self, nbytes: float):
        """Mutator allocation; use as ``yield from vm.allocate(n)``."""
        return self.heap.allocate(nbytes)

    @property
    def stall_time(self) -> float:
        return self.heap.stall_time

    @property
    def stall_count(self) -> int:
        return self.heap.stall_count

    @property
    def collections(self) -> int:
        return self.heap.collections


def jrockit(system: System, gc: GCKind = GCKind.PARALLEL,
            **kwargs) -> ManagedRuntime:
    """BEA JRockit 8.1 preset: the more efficient collectors."""
    kwargs.setdefault("gc_cycles_per_byte",
                      18.0 if gc is GCKind.PARALLEL else 26.0)
    return ManagedRuntime(system, gc=gc, name="jrockit", **kwargs)


def hotspot(system: System, gc: GCKind = GCKind.CONCURRENT,
            **kwargs) -> ManagedRuntime:
    """Sun HotSpot 1.4.2 preset: slower collector, smaller headroom."""
    kwargs.setdefault("gc_cycles_per_byte",
                      24.0 if gc is GCKind.PARALLEL else 40.0)
    kwargs.setdefault("trigger_fraction", 0.8)
    return ManagedRuntime(system, gc=gc, name="hotspot", **kwargs)


#: VM preset name -> factory (SPECjbb's and the service's ``vm``).
VM_PRESETS = {"jrockit": jrockit, "hotspot": hotspot}
