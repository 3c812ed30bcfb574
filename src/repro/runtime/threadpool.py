"""A generic worker-thread pool over the simulated kernel.

Used by SPECjAppServer (the web servers run their own worker models):
a fixed set of worker threads pull tasks from a shared FIFO queue,
guarded by a semaphore so idle workers sleep off-CPU.  Each task is
some compute, optionally preceded by a blocking I/O wait, with a
completion callback for metric collection.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro._system import System
from repro.errors import WorkloadError
from repro.kernel.instructions import Acquire, Compute, Sleep
from repro.kernel.sync import Semaphore
from repro.kernel.thread import SimThread


class Task:
    """One unit of pool work.

    Parameters
    ----------
    cycles:
        CPU cycles of processing.
    io_before:
        Blocking wall-time wait before the compute (e.g. reading the
        request).
    on_done:
        Called as ``on_done(task, finish_time)`` in kernel context.
    """

    __slots__ = ("cycles", "io_before", "on_done",
                 "submit_time", "start_time", "finish_time")

    def __init__(self, cycles: float, io_before: float = 0.0,
                 on_done: Optional[Callable[["Task", float], None]] = None) -> None:
        if cycles < 0 or io_before < 0:
            raise WorkloadError("task durations must be non-negative")
        self.cycles = cycles
        self.io_before = io_before
        self.on_done = on_done
        self.submit_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None

    @property
    def queue_delay(self) -> Optional[float]:
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def response_time(self) -> Optional[float]:
        if self.submit_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.submit_time


class ThreadPool:
    """Fixed-size worker pool with a shared FIFO task queue."""

    def __init__(self, system: System, n_workers: int,
                 name: str = "pool", pin: bool = False,
                 daemon: bool = True) -> None:
        if n_workers < 1:
            raise WorkloadError("pool needs at least one worker")
        self.system = system
        self.name = name
        self.n_workers = n_workers
        self._tasks: Deque[Task] = deque()
        self._available = Semaphore(0, name=f"{name}-tasks")
        self._shutdown = False
        self.completed = 0
        self.workers: List[SimThread] = []
        n_cores = system.machine.n_cores
        for wid in range(n_workers):
            affinity = frozenset([wid % n_cores]) if pin else None
            worker = SimThread(f"{name}-w{wid}", self._worker_body(),
                               affinity=affinity, daemon=daemon)
            self.workers.append(worker)
            system.kernel.spawn(worker)

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Tasks submitted but not yet picked up."""
        return len(self._tasks)

    def submit(self, task: Task) -> Task:
        """Enqueue a task; an idle worker (if any) picks it up."""
        if self._shutdown:
            raise WorkloadError(f"pool {self.name!r} is shut down")
        task.submit_time = self.system.now
        self._tasks.append(task)
        self._release_one()
        return task

    def shutdown(self) -> None:
        """Ask workers to exit once the queue drains."""
        self._shutdown = True
        for _ in range(self.n_workers):
            self._release_one()

    # ------------------------------------------------------------------
    def _release_one(self) -> None:
        self.system.kernel.semaphore_release(self._available)

    def _worker_body(self):
        while True:
            yield Acquire(self._available)
            if not self._tasks:
                if self._shutdown:
                    return
                continue  # spurious wake; go back to waiting
            task = self._tasks.popleft()
            task.start_time = self.system.now
            if task.io_before > 0:
                yield Sleep(task.io_before)
            if task.cycles > 0:
                yield Compute(task.cycles)
            task.finish_time = self.system.now
            self.completed += 1
            if task.on_done is not None:
                task.on_done(task, task.finish_time)
