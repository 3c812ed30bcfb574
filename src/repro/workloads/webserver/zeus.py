"""Zeus 4.3 model (paper §3.4).

    "Zeus utilizes a small, fixed number of single-threaded I/O
    multiplexing processes, and these processes handle tens of
    thousands of simultaneous connections."

Zeus is closed source; the paper could not isolate its instability and
only established the observable facts: (a) unstable under light *and*
heavy load on asymmetric machines, (b) stable on symmetric machines,
(c) up to 2.5x Apache's throughput, and (d) the asymmetry-aware kernel
does not help — "suggesting that Zeus runs its own threading
scheduler."

The model encodes a structure consistent with all four observations:

* a **master acceptor** process through which every connection and
  request passes (accept + user-level dispatch).  Zeus places its own
  processes: the master is pinned at startup to a core chosen without
  regard to speed.  A run whose master landed on a slow core is
  globally throttled — run-level bimodal variance under any load,
  invisible to kernel-side fixes because the process is pinned.
* worker event loops pinned one per core, connections dispatched
  balanced by connection count (speed-blind), sticky for the
  connection's life.
* event-driven request handling with low per-request cost and no
  blocking I/O — the throughput edge over pre-forked Apache.

On symmetric machines every pinning choice is equivalent, so runs are
stable — matching the paper's baseline check.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro._system import System
from repro.kernel.instructions import Acquire, Compute, Release
from repro.kernel.sync import Semaphore
from repro.kernel.thread import SimThread
from repro.workloads.webserver.client import Request


class _EventWorker:
    """One single-threaded I/O-multiplexing process."""

    __slots__ = ("wid", "thread", "gate", "queue", "connections")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.thread: Optional[SimThread] = None
        self.gate = Semaphore(0, name=f"zeus-events-{wid}")
        self.queue: Deque[Request] = deque()
        self.connections = 0


class ZeusServer:
    """Event-driven web server with user-level process scheduling.

    Parameters
    ----------
    pin:
        Zeus binds its own processes (default).  The master goes to a
        *random* core — Zeus knows nothing about core speeds.
    """

    name = "zeus"
    #: CPU work per request in a worker (no blocking sleeps), jittered
    #: per request by ``request_jitter``.
    request_cycles = 1.0e6
    request_jitter = 0.05
    #: Master-process work per request (accept, parse, dispatch).
    accept_cycles = 0.4e6

    def __init__(self, system: System, pin: bool = True) -> None:
        self.system = system
        n_cores = system.machine.n_cores
        # One event loop per remaining core; the master acceptor gets a
        # core of its own (Zeus's deployment guides recommend leaving
        # the acceptor a dedicated CPU).
        self.n_workers = max(1, n_cores - 1)
        self.rng = system.sim.stream("zeus.dispatch")
        self.requests_served = 0
        self._bindings: Dict[int, _EventWorker] = {}
        self._accept_queue: Deque[Request] = deque()
        self._accept_gate = Semaphore(0, name="zeus-accept")

        # Zeus's own placement decisions, blind to core speed: the
        # master picks a random core, workers take the rest in order.
        master_core = self.rng.randrange(n_cores) if pin else None
        self.master_core = master_core
        self.master = SimThread(
            "zeus-master", self._master_body(),
            affinity=(frozenset([master_core]) if pin else None),
            daemon=True)
        system.kernel.spawn(self.master)

        worker_cores = [c for c in range(n_cores) if c != master_core]
        self.workers: List[_EventWorker] = []
        for wid in range(self.n_workers):
            worker = _EventWorker(wid)
            if pin and worker_cores:
                affinity = frozenset([worker_cores[wid % len(worker_cores)]])
            else:
                affinity = None
            worker.thread = SimThread(f"zeus-w{wid}",
                                      self._worker_body(worker),
                                      affinity=affinity, daemon=True)
            self.workers.append(worker)
            system.kernel.spawn(worker.thread)

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """All traffic enters through the master acceptor."""
        self._accept_queue.append(request)
        self.system.kernel.semaphore_release(self._accept_gate)

    def _dispatch_connection(self) -> _EventWorker:
        """User-level balancing: fewest connections wins (lowest id on
        ties).  Counts are balanced deterministically; core speeds are
        never consulted — the run-level randomness in Zeus comes from
        where Zeus pinned its master process."""
        return min(self.workers, key=lambda w: (w.connections, w.wid))

    # ------------------------------------------------------------------
    def _master_body(self):
        while True:
            yield Acquire(self._accept_gate)
            if not self._accept_queue:
                continue
            request = self._accept_queue.popleft()
            yield Compute(self.accept_cycles)
            worker = self._bindings.get(request.slot_id)
            if worker is None:
                worker = self._dispatch_connection()
                self._bindings[request.slot_id] = worker
                worker.connections += 1
            request.start_time = self.system.now
            worker.queue.append(request)
            yield Release(worker.gate)

    def _worker_body(self, worker: _EventWorker):
        while True:
            yield Acquire(worker.gate)
            if not worker.queue:
                continue
            request = worker.queue.popleft()
            yield Compute(self.rng.jitter(self.request_cycles,
                                          self.request_jitter))
            request.finish_time = self.system.now
            self.requests_served += 1
            request.on_done(request)
