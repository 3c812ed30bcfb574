"""Apache 2.0 prefork model (paper §3.4).

    "Apache maintains several idle processes waiting for incoming
    requests.  A single control process launches child processes, and
    these processes wait for incoming requests. ... A process handles a
    pre-defined number of requests, and then terminates and recycles."

Structure captured by the model:

* a pool of pre-forked single-request worker processes blocking in
  ``accept()``.  Idle workers form a LIFO stack — Linux wakes exclusive
  waiters last-in-first-out for cache warmth — so under light load a
  small *hot set* of workers serves all traffic, and where the kernel
  parked those workers (fast or slow core) persists for the run.  That
  persistence is the §3.4.1 light-load instability.
* requests queue when all workers are busy (heavy load), which
  saturates every core and makes throughput placement-independent —
  the paper's stable heavy-load regime.
* after ``recycle_after`` requests a worker exits and the control
  process forks a replacement.  The paper's fine-grained threading
  experiment (Figure 6(b)) sets this to 50: placement is re-randomized
  constantly (stability through averaging) at the price of serialized
  fork overhead.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro._system import System
from repro.kernel.instructions import Acquire, Compute, Lock, Sleep, Spawn, Unlock
from repro.kernel.sync import Semaphore, make_lock
from repro.kernel.thread import SimThread
from repro.workloads.webserver.client import Request

#: Paper §3.4.2: default ("optimal") and fine-grained recycle limits.
DEFAULT_RECYCLE_AFTER = 5000
FINE_GRAINED_RECYCLE_AFTER = 50


class _Worker:
    """Bookkeeping for one pre-forked worker process."""

    __slots__ = ("wid", "thread", "gate", "request", "served")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.thread: Optional[SimThread] = None
        self.gate = Semaphore(0, name=f"apache-accept-{wid}")
        self.request: Optional[Request] = None
        self.served = 0


class ApacheServer:
    """Pre-fork worker-pool web server.

    Parameters
    ----------
    n_workers:
        Pre-forked pool size (the paper's "optimally selected" count).
    recycle_after:
        Requests a worker handles before it exits and is re-forked.
    io_read / io_write:
        Blocking socket read/write time per request.
    """

    name = "apache"
    #: CPU work to serve the static file once (fast-core cycles),
    #: jittered per request by ``request_jitter``.
    request_cycles = 2.8e6
    request_jitter = 0.05
    #: Control-process cost of forking one replacement worker.
    fork_latency = 0.0015
    fork_cycles = 1.4e6
    #: Child-initialization CPU work of every forked worker.
    startup_cycles = 8.4e6
    #: The initial pool boots before the benchmark's measurement
    #: window (server startup is never measured); replacement
    #: children forked during the run pay the full child-init.
    initial_startup_latency = 0.050
    #: Kind of Apache's cross-process accept mutex (DESIGN.md §11).
    lock_kind = "spin"
    #: Held time per accept: dequeue the connection or register in
    #: the idle list (fast-core cycles).
    accept_cycles = 15e3

    def __init__(self, system: System, n_workers: int = 12,
                 recycle_after: int = DEFAULT_RECYCLE_AFTER,
                 io_read: float = 0.0005,
                 io_write: float = 0.0005,
                 startup_latency: float = 0.150) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if recycle_after < 1:
            raise ValueError("recycle_after must be >= 1")
        self.system = system
        self.n_workers = n_workers
        self.recycle_after = recycle_after
        self.io_read = io_read
        self.io_write = io_write
        self.startup_latency = startup_latency
        self._accept_lock = make_lock(self.lock_kind, "apache-acceptq")
        self.rng = system.sim.stream("apache.service")

        #: Idle workers in FIFO order: the era's kernels wake exclusive
        #: ``accept()`` waiters first-in-first-out, so traffic rotates
        #: through the whole pool.  Combined with sticky per-worker
        #: core placement, each run's throughput reflects how many of
        #: the pool's processes the kernel happened to park on slow
        #: cores — the §3.4.1 light-load instability.
        self._idle: Deque[_Worker] = deque()
        self._backlog: Deque[Request] = deque()
        self._exited: Deque[_Worker] = deque()
        self._fork_gate = Semaphore(0, name="apache-control")
        self.requests_served = 0
        self.forks = 0
        self._next_wid = 0

        self._control = SimThread("apache-control", self._control_body(),
                                  daemon=True)
        system.kernel.spawn(self._control)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept a connection: wake the longest-idle worker (FIFO)."""
        if self._idle:
            worker = self._idle.popleft()
            self._assign(worker, request)
        else:
            self._backlog.append(request)

    @property
    def idle_workers(self) -> int:
        return len(self._idle)

    @property
    def backlog(self) -> int:
        return len(self._backlog)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _make_worker(self, initial: bool = False) -> _Worker:
        worker = _Worker(self._next_wid)
        self._next_wid += 1
        latency = (self.initial_startup_latency if initial
                   else self.startup_latency)
        worker.thread = SimThread(
            f"apache-w{worker.wid}",
            self._worker_body(worker, startup_latency=latency),
            daemon=True)
        self.forks += 1
        return worker

    def _assign(self, worker: _Worker, request: Request) -> None:
        worker.request = request
        request.start_time = self.system.now
        self.system.kernel.semaphore_release(worker.gate)

    def _worker_body(self, worker: _Worker, startup_latency: float):
        # Child initialization: loading modules, opening logs, warming
        # caches.  Negligible over a 5000-request lifetime; dominant
        # when recycling every 50 requests (Figure 6(b)).
        if startup_latency > 0:
            yield Sleep(startup_latency)
        yield Compute(self.startup_cycles)
        while True:
            if worker.request is None:
                # Apache's cross-process accept mutex: only one worker
                # at a time may pop the connection backlog or park
                # itself in the idle list.
                yield Lock(self._accept_lock)
                yield Compute(self.accept_cycles)
                if self._backlog:
                    worker.request = self._backlog.popleft()
                    worker.request.start_time = self.system.now
                    yield Unlock(self._accept_lock)
                else:
                    # No connection pending: go idle in accept().
                    self._idle.append(worker)
                    yield Unlock(self._accept_lock)
                    yield Acquire(worker.gate)
                    continue
            request = worker.request
            worker.request = None
            if self.io_read > 0:
                yield Sleep(self.io_read)
            yield Compute(self.rng.jitter(self.request_cycles,
                                          self.request_jitter))
            if self.io_write > 0:
                yield Sleep(self.io_write)
            request.finish_time = self.system.now
            self.requests_served += 1
            worker.served += 1
            request.on_done(request)
            if worker.served >= self.recycle_after:
                # Terminate and ask the control process for a fork.
                self._exited.append(worker)
                self.system.kernel.semaphore_release(self._fork_gate)
                return

    def _control_body(self):
        # The control process forks the whole initial pool: children
        # start on the control's core (Linux 2.4 fork placement) and
        # are spread over the machine by idle balancing afterwards.
        for _ in range(self.n_workers):
            yield Sleep(self.fork_latency)
            yield Compute(self.fork_cycles)
            yield Spawn(self._make_worker(initial=True).thread)
        # Steady state: replace each recycled worker with a fresh fork.
        while True:
            yield Acquire(self._fork_gate)
            self._exited.popleft()
            yield Sleep(self.fork_latency)
            yield Compute(self.fork_cycles)
            yield Spawn(self._make_worker().thread)
