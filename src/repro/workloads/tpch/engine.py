"""The DB2-style database server model (paper §3.3).

Structure the paper identifies as decisive:

* the server pre-forks **server processes** and *binds them to
  processors itself* — "which are bound by the server to various
  processors, thus making our kernel fix ineffective";
* intra-query parallelism splits a query into sub-queries dispatched
  onto those processes by the server's own agent scheduler, which
  knows nothing about core speeds;
* the query's runtime is the completion time of its slowest piece, so
  which piece lands on a slow processor decides the runtime — and the
  dispatch decision varies run to run.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro._system import System
from repro.kernel.instructions import Acquire, Compute, Lock, Unlock
from repro.kernel.sync import Semaphore, make_lock
from repro.kernel.thread import SimThread
from repro.workloads.tpch.queries import QueryPlan, SubQuery


class _ServerProcess:
    """One DB2 server process, bound to a fixed core."""

    __slots__ = ("pid", "core", "thread", "gate", "queue")

    def __init__(self, pid: int, core: int) -> None:
        self.pid = pid
        self.core = core
        self.thread: Optional[SimThread] = None
        self.gate = Semaphore(0, name=f"db2-agent-{pid}")
        self.queue: Deque[SubQuery] = deque()


class DatabaseServer:
    """Pre-forked, processor-bound database engine.

    Parameters
    ----------
    n_processes:
        Server processes; DB2 binds them round-robin over the cores.
    lock_kind:
        Kind of the shared buffer-pool latch every agent takes before
        running a piece ("fifo"/"spin"/"mcs"/"asym", DESIGN.md §11).
    latch_cycles:
        Latch hold time per piece (page-table lookup and pin, fast-core
        cycles).  Zero disables the latch entirely.
    """

    #: Small relative jitter on piece execution (buffer pool state, I/O
    #: interleaving) — gives symmetric configurations their tight but
    #: non-identical clustering, as in Figure 4.
    execution_jitter = 0.01

    def __init__(self, system: System, n_processes: Optional[int] = None,
                 lock_kind: str = "fifo",
                 latch_cycles: float = 25e3) -> None:
        if latch_cycles < 0:
            raise ValueError("latch_cycles must be non-negative")
        self.system = system
        n_cores = system.machine.n_cores
        self.n_processes = n_processes or 2 * n_cores
        self.latch_cycles = latch_cycles
        self._buffer_pool_latch = (
            make_lock(lock_kind, "db2-bufferpool")
            if latch_cycles > 0 else None)
        self.dispatch_rng = system.sim.stream("db2.dispatch")
        self.exec_rng = system.sim.stream("db2.exec")
        self.processes: List[_ServerProcess] = []
        self._completions = Semaphore(0, name="db2-done")
        for pid in range(self.n_processes):
            process = _ServerProcess(pid, pid % n_cores)
            process.thread = SimThread(
                f"db2-p{pid}", self._process_body(process),
                affinity=frozenset([process.core]), daemon=True)
            self.processes.append(process)
            system.kernel.spawn(process.thread)

    # ------------------------------------------------------------------
    def run_query(self, plan: QueryPlan):
        """Generator executing one query; yields until all pieces done.

        Dispatch mirrors DB2's intra-parallel agent scheduler: agents
        are spread one per processor, round-robin from a rotating
        start, but *which sub-plan* each agent executes is arbitrary —
        the server has no notion of processor speed.  So sub-query
        load is balanced by count across cores while the piece→core
        pairing changes run to run.  Use from a coordinator thread
        body as ``yield from server.run_query(plan)``.
        """
        machine = self.system.machine
        counters = self.system.kernel.metrics.counters
        n_cores = machine.n_cores
        pieces = list(plan.pieces)
        self.dispatch_rng.shuffle(pieces)
        start = self.dispatch_rng.randrange(n_cores)
        counters.incr("db2.queries")
        for offset, piece in enumerate(pieces):
            core = (start + offset) % n_cores
            process = self._pick_process_on(core)
            process.queue.append(piece)
            # The agent scheduler is blind to core speed; record which
            # class each piece landed on — the run-to-run variable the
            # paper identifies as deciding the query's runtime.
            speed = "fast" if machine.is_fast(machine.cores[core]) \
                else "slow"
            counters.incr(f"db2.dispatch.{speed}")
            counters.incr("db2.dispatch.cycles_" + speed, piece.cycles)
            self.system.kernel.semaphore_release(process.gate)
        for _ in pieces:
            yield Acquire(self._completions)

    def _pick_process_on(self, core: int) -> _ServerProcess:
        """Least-queued server process bound to ``core``."""
        bound = [p for p in self.processes if p.core == core]
        shortest = min(len(p.queue) for p in bound)
        candidates = [p for p in bound if len(p.queue) == shortest]
        return self.dispatch_rng.choice_tiebreak(candidates)

    def _process_body(self, process: _ServerProcess):
        while True:
            yield Acquire(process.gate)
            if not process.queue:
                continue
            piece = process.queue.popleft()
            if self._buffer_pool_latch is not None:
                # Pin the piece's pages in the shared buffer pool.  The
                # latch is released before the scan itself so only the
                # (short) pin serializes, not the whole sub-query.
                yield Lock(self._buffer_pool_latch)
                yield Compute(self.latch_cycles)
                yield Unlock(self._buffer_pool_latch)
            yield Compute(self.exec_rng.jitter(piece.cycles,
                                               self.execution_jitter))
            self.system.kernel.semaphore_release(self._completions)
