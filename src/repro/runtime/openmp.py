"""An OpenMP 2.0-style loop-parallel runtime (paper §3.5).

SPEC OMP programs are sequences of serial sections and work-shared
loops.  OpenMP offers three loop schedules the paper analyzes:

* **static** — iterations divided equally among threads up front; on an
  asymmetric machine the slowest core limits every loop.
* **dynamic** — threads grab fixed-size chunks on demand; work flows to
  the cores that finish earlier (the paper's fix in Figure 8(b)).
* **guided** — on-demand chunks that start large and shrink
  exponentially; better than static, but slow cores still grab
  fast-core-sized chunks (galgel's behaviour).

A fourth, performance-portable policy extends the paper's menu
(arXiv:2402.07664, DESIGN.md §14):

* **static_weighted** — contiguous chunks sized proportionally to each
  team member's *current* core speed, re-read at loop entry so
  DVFS/throttle faults (:mod:`repro.faults`) shift the split.  When
  core speeds change mid-loop the split goes stale; ``dynamic``
  rebalances that case best.

Loops may carry ``nowait``, dropping the end-of-loop barrier so faster
threads flow into the next loop (used by galgel's hot regions).

A program is executed by a persistent, core-pinned team — thread *i*
bound to core *i*, master on core 0 — matching how the Intel OpenMP
runtime binds threads.  Serial sections run on the master between
region barriers.

The runtime books its scheduling overheads into ``omp.*`` counters
(chunk grabs, dispatch cycles, straggler tails);
:meth:`repro.metrics.RunMetrics.conservation_errors` audits the
cycle-valued ones against the cycles the cores actually retired.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro._system import System
from repro.errors import WorkloadError
from repro.kernel.instructions import (
    BarrierWait,
    Compute,
    GetCore,
    GetTime,
)
from repro.kernel.sync import Barrier
from repro.kernel.thread import SimThread

#: Cycles charged for one dynamic/guided chunk grab (dispatch cost).
DEFAULT_DISPATCH_OVERHEAD_CYCLES = 25_000.0

#: Cycles charged to every thread for entering/leaving a parallel loop.
DEFAULT_FORK_OVERHEAD_CYCLES = 10_000.0


class LoopSchedule(enum.Enum):
    """OpenMP loop scheduling kinds (spec §2.4.1 + DESIGN.md §14)."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    GUIDED = "guided"
    STATIC_WEIGHTED = "static_weighted"


CyclesPerIteration = Union[float, Callable[[int], float]]


class Loop:
    """A work-shared parallel loop (``omp for``)."""

    def __init__(self, iterations: int,
                 cycles_per_iteration: CyclesPerIteration,
                 schedule: LoopSchedule = LoopSchedule.STATIC,
                 chunk: Optional[int] = None,
                 nowait: bool = False,
                 name: str = "") -> None:
        if iterations < 0:
            raise WorkloadError(
                f"loop iterations must be >= 0, got {iterations}")
        if chunk is not None and chunk < 1:
            raise WorkloadError(f"chunk must be >= 1, got {chunk}")
        self.iterations = iterations
        self.cycles_per_iteration = cycles_per_iteration
        self.schedule = schedule
        self.chunk = chunk
        self.nowait = nowait
        self.name = name

    def iteration_cycles(self, index: int) -> float:
        if callable(self.cycles_per_iteration):
            return float(self.cycles_per_iteration(index))
        return float(self.cycles_per_iteration)

    def range_cycles(self, lo: int, hi: int) -> float:
        """Total cycles of iterations [lo, hi)."""
        if not callable(self.cycles_per_iteration):
            return (hi - lo) * float(self.cycles_per_iteration)
        return sum(self.iteration_cycles(i) for i in range(lo, hi))

    def total_cycles(self) -> float:
        return self.range_cycles(0, self.iterations)

    def with_schedule(self, schedule: LoopSchedule,
                      chunk: Optional[int] = None) -> "Loop":
        """Copy of this loop under a different schedule directive.

        This is the paper's "source modified to use parallelization
        directives" transformation (Figure 8(b)).
        """
        return Loop(self.iterations, self.cycles_per_iteration,
                    schedule=schedule, chunk=chunk, nowait=self.nowait,
                    name=self.name)


class Serial:
    """A serial section executed only by the master thread."""

    def __init__(self, cycles: float, name: str = "") -> None:
        if cycles < 0:
            raise WorkloadError(f"serial cycles must be >= 0, got {cycles}")
        self.cycles = float(cycles)
        self.name = name


ProgramItem = Union[Loop, Serial]


class OmpProgram:
    """An ordered list of serial sections and parallel loops."""

    def __init__(self, items: Sequence[ProgramItem], name: str = "") -> None:
        self.items: List[ProgramItem] = list(items)
        self.name = name

    def total_parallel_cycles(self) -> float:
        return sum(item.total_cycles() for item in self.items
                   if isinstance(item, Loop))

    def total_serial_cycles(self) -> float:
        return sum(item.cycles for item in self.items
                   if isinstance(item, Serial))

    def serial_fraction(self) -> float:
        """Fraction of single-thread work that is serial (Amdahl's f)."""
        serial = self.total_serial_cycles()
        total = serial + self.total_parallel_cycles()
        return serial / total if total else 0.0

    def with_schedule(self, schedule: LoopSchedule,
                      chunk: Optional[int] = None) -> "OmpProgram":
        """Program copy with every loop's schedule replaced."""
        items: List[ProgramItem] = []
        for item in self.items:
            if isinstance(item, Loop):
                items.append(item.with_schedule(schedule, chunk))
            else:
                items.append(item)
        return OmpProgram(items, name=self.name)


class _LoopState:
    """Shared per-execution state of one work-shared loop.

    ``next_iteration`` drives dynamic/guided chunk grabs.
    static_weighted lazily fills ``bounds`` on first arrival, so the
    split reflects core speeds *at loop entry* — a throttle fault
    landing between two loops changes the next loop's partition.
    ``finish_times`` collects per-member loop-exit times for straggler
    accounting.
    """

    __slots__ = ("next_iteration", "bounds", "finish_times")

    def __init__(self) -> None:
        self.next_iteration = 0
        self.bounds: Optional[List[Tuple[int, int]]] = None
        self.finish_times: List[float] = []


class OmpTeam:
    """A persistent team of OpenMP threads bound to cores.

    Parameters
    ----------
    system:
        The simulated platform to run on.
    n_threads:
        Team size; defaults to the machine's core count.
    pin:
        Bind thread *i* to core *i* (the Intel runtime default the
        paper's setup uses).  Unpinned teams are placed by the kernel
        scheduler — useful for ablations.
    """

    def __init__(self, system: System, n_threads: Optional[int] = None,
                 pin: bool = True,
                 dispatch_overhead_cycles: float =
                 DEFAULT_DISPATCH_OVERHEAD_CYCLES,
                 fork_overhead_cycles: float =
                 DEFAULT_FORK_OVERHEAD_CYCLES) -> None:
        self.system = system
        self.n_threads = (system.machine.n_cores if n_threads is None
                          else n_threads)
        if self.n_threads < 1:
            raise WorkloadError("team needs at least one thread")
        self.pin = pin
        self.dispatch_overhead_cycles = dispatch_overhead_cycles
        self.fork_overhead_cycles = fork_overhead_cycles
        self.barrier = Barrier(self.n_threads, name="omp-team")
        #: Chunks grabbed per thread id (observability for tests).
        self.chunks_taken: List[int] = [0] * self.n_threads

    # ------------------------------------------------------------------
    def execute(self, program: OmpProgram) -> float:
        """Run ``program`` to completion; returns its wall time."""
        start = self.system.now
        threads = self.spawn(program)
        self.system.run()
        del threads
        return self.system.now - start

    def spawn(self, program: OmpProgram) -> List[SimThread]:
        """Spawn the team threads executing ``program`` (non-blocking)."""
        states = [
            _LoopState() if isinstance(item, Loop) else None
            for item in program.items
        ]
        threads = []
        n_cores = self.system.machine.n_cores
        for tid in range(self.n_threads):
            affinity = frozenset([tid % n_cores]) if self.pin else None
            thread = SimThread(
                f"omp-{program.name or 'prog'}-{tid}",
                self._member_body(tid, program, states),
                affinity=affinity)
            threads.append(thread)
        # Spawn in tid order so pinned placement is deterministic.
        for thread in threads:
            self.system.kernel.spawn(thread)
        return threads

    # ------------------------------------------------------------------
    def _member_body(self, tid: int, program: OmpProgram,
                     states: List[Optional[_LoopState]]):
        """Generator body of team member ``tid``."""
        for item, state in zip(program.items, states):
            if isinstance(item, Serial):
                # Region boundary: everyone synchronizes, the master
                # runs the serial section, everyone waits for it.
                yield BarrierWait(self.barrier)
                if tid == 0 and item.cycles > 0:
                    yield Compute(item.cycles)
                yield BarrierWait(self.barrier)
                continue
            if self.fork_overhead_cycles > 0:
                yield Compute(self.fork_overhead_cycles)
            if item.schedule is LoopSchedule.STATIC:
                yield from self._run_static(tid, item)
            elif item.schedule is LoopSchedule.STATIC_WEIGHTED:
                yield from self._run_static_weighted(tid, item, state)
            elif item.schedule is LoopSchedule.DYNAMIC:
                yield from self._run_on_demand(tid, item, state,
                                               guided=False)
            else:
                yield from self._run_on_demand(tid, item, state,
                                               guided=True)
            if not item.nowait:
                yield BarrierWait(self.barrier)

    def _run_static(self, tid: int, loop: Loop):
        """Contiguous equal division, exactly OpenMP's default static.

        With I iterations and T threads the first ``I mod T`` threads
        get ``ceil(I/T)`` iterations — which is how the paper's ammp
        run ended up with two iterations on each fast core and one on
        each slow core (§3.5).
        """
        per_thread = loop.iterations // self.n_threads
        remainder = loop.iterations % self.n_threads
        size = per_thread + (1 if tid < remainder else 0)
        lo = tid * per_thread + min(tid, remainder)
        hi = lo + size
        cycles = loop.range_cycles(lo, hi)
        if cycles > 0:
            yield Compute(cycles)

    def _run_on_demand(self, tid: int, loop: Loop,
                       state: _LoopState, guided: bool):
        """Chunk-grabbing execution shared by dynamic and guided."""
        min_chunk = loop.chunk or 1
        counters = self.system.counters
        while True:
            lo = state.next_iteration
            if lo >= loop.iterations:
                return
            remaining = loop.iterations - lo
            if guided:
                # Chunk shrinks with remaining work (classic guided
                # self-scheduling); every thread computes the same
                # formula regardless of its core's speed.
                size = max(min_chunk,
                           math.ceil(remaining / (2 * self.n_threads)))
            else:
                size = min_chunk
            size = min(size, remaining)
            state.next_iteration = lo + size
            self.chunks_taken[tid] += 1
            counters.incr("omp.chunks_dispatched")
            cycles = loop.range_cycles(lo, lo + size)
            yield Compute(cycles + self.dispatch_overhead_cycles)
            # Booked after the slice retires so the counter never
            # exceeds the cycles the cores actually burned (the same
            # invariant lock.spin_cycles holds).
            if self.dispatch_overhead_cycles > 0:
                counters.incr("omp.dispatch_cycles",
                              self.dispatch_overhead_cycles)

    # -- performance-portable policy (DESIGN.md §14) -------------------
    def _weighted_bounds(self, loop: Loop) -> List[Tuple[int, int]]:
        """Contiguous split proportional to *current* core speeds.

        Reads each member's pinned-core rate at call time, so DVFS and
        throttle faults applied before loop entry shift the split.
        Cumulative rounding keeps the partition exact: every iteration
        lands in exactly one member's range.
        """
        machine = self.system.machine
        weights = [machine.cores[tid % machine.n_cores].rate
                   for tid in range(self.n_threads)]
        total = sum(weights)
        if total <= 0:
            weights = [1.0] * self.n_threads
            total = float(self.n_threads)
        bounds: List[Tuple[int, int]] = []
        start = 0
        acc = 0.0
        for weight in weights:
            acc += weight
            end = int(round(loop.iterations * acc / total))
            end = min(max(end, start), loop.iterations)
            bounds.append((start, end))
            start = end
        lo, _ = bounds[-1]
        bounds[-1] = (lo, loop.iterations)
        return bounds

    def _run_static_weighted(self, tid: int, loop: Loop,
                             state: _LoopState):
        """Speed-proportional contiguous chunks (one per member)."""
        if state.bounds is None:
            state.bounds = self._weighted_bounds(loop)
        lo, hi = state.bounds[tid]
        if hi > lo:
            self.chunks_taken[tid] += 1
            self.system.counters.incr("omp.chunks_dispatched")
            cycles = loop.range_cycles(lo, hi)
            if cycles > 0:
                yield Compute(cycles)
        yield from self._record_finish(state)

    def _record_finish(self, state: _LoopState):
        """Log loop-exit time; last finisher books its straggler tail.

        ``omp.straggler_cycles`` is the time the last member computes
        alone (after the second-to-last finished), converted to cycles
        at its core's current rate — the quantity the portable policy
        exists to shrink.
        """
        now = yield GetTime()
        core = yield GetCore()
        state.finish_times.append(now)
        if len(state.finish_times) == self.n_threads:
            times = sorted(state.finish_times)
            alone = times[-1] - times[-2] if len(times) > 1 else 0.0
            if alone > 0:
                rate = self.system.machine.cores[core].rate
                self.system.counters.incr("omp.straggler_cycles",
                                          alone * rate)
