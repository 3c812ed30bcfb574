"""Warm worker pool with sweep sharding and crash containment.

The scenario server keeps one :class:`ShardedPoolExecutor` alive for
its whole lifetime: a persistent ``ProcessPoolExecutor`` whose workers
survive across requests (no per-request fork/spawn cost), fed with
*shards* — contiguous slices of a request's task list.  Results are
reassembled in task order, so a sharded execution is byte-identical
to :class:`~repro.experiments.parallel.SerialBackend` output.

Per-request trace categories and coalescing mode travel inside each
task (its :class:`~repro.workloads.base.RunOptions`), so one warm pool
serves requests with different settings concurrently.

Crash containment: a worker process dying (OOM kill, segfault in an
extension, ``os._exit``) breaks the whole ``ProcessPoolExecutor``.
The executor rebuilds the pool and retries each failed shard once;
a shard that fails twice raises :class:`WorkerCrashError` to its own
request while other requests' shards are retried on the fresh pool —
one poisoned scenario cannot wedge the service.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments.parallel import RunTask, execute_task
from repro.metrics import CounterBag
from repro.workloads.base import RunResult


class WorkerCrashError(ReproError):
    """A shard's worker died twice; the shard's tasks are attached."""

    def __init__(self, message: str,
                 tasks: Sequence[RunTask] = ()) -> None:
        super().__init__(message)
        self.tasks = tuple(tasks)


def execute_shard(tasks: List[RunTask]) -> List[RunResult]:
    """Worker-process entry point: run one shard's tasks in order."""
    return [execute_task(task) for task in tasks]


class ShardedPoolExecutor:
    """Persistent process pool executing task shards with one retry.

    Parameters
    ----------
    jobs:
        Worker count (default: ``os.cpu_count()``).
    shard_size:
        Tasks per shard.  The default splits each request into roughly
        two shards per worker — small enough to load-balance, large
        enough to amortize pickling.
    """

    def __init__(self, jobs: Optional[int] = None,
                 shard_size: Optional[int] = None) -> None:
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.shard_size = shard_size
        self.counters = CounterBag()
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._closed = False

    # ------------------------------------------------------------------
    def _pool_handle(self) -> Tuple[ProcessPoolExecutor, int]:
        """The live pool and its generation, creating it if needed."""
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is shut down")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
                self.counters.incr("service.pool.starts")
            return self._pool, self._generation

    def _retire_pool(self, generation: int) -> None:
        """Discard a broken pool (idempotent across racing threads)."""
        with self._lock:
            if self._generation != generation or self._pool is None:
                return  # another thread already rebuilt
            broken = self._pool
            self._pool = None
            self._generation += 1
            self.counters.incr("service.pool.rebuilds")
        broken.shutdown(wait=False, cancel_futures=True)

    def shards(self, tasks: Sequence[RunTask]) -> List[List[RunTask]]:
        """The contiguous shards :meth:`run_tasks` runs ``tasks`` as."""
        tasks = list(tasks)
        size = self.shard_size or max(
            1, (len(tasks) + 2 * self.jobs - 1) // (2 * self.jobs))
        return [tasks[i:i + size] for i in range(0, len(tasks), size)]

    # ------------------------------------------------------------------
    def run_tasks(self, tasks: Sequence[RunTask]) -> List[RunResult]:
        """Execute tasks on the warm pool; results in task order.

        Blocking — the server calls this from a dedicated executor
        thread per admitted batch.  Raises :class:`WorkerCrashError`
        if any shard's worker dies twice.
        """
        if not tasks:
            return []
        shards = self.shards(tasks)
        self.counters.incr("service.pool.shards", len(shards))
        results: List[Optional[List[RunResult]]] = [None] * len(shards)
        attempts = [0] * len(shards)
        remaining = list(range(len(shards)))
        while remaining:
            pool, generation = self._pool_handle()
            futures = {}
            try:
                for index in remaining:
                    attempts[index] += 1
                    futures[index] = pool.submit(execute_shard,
                                                 shards[index])
            except BrokenProcessPool:
                # Pool died between handle and submit; every shard we
                # managed to submit fails below too.
                pass
            failed: List[int] = []
            exhausted: List[int] = []
            broken = False
            for index in remaining:
                future = futures.get(index)
                try:
                    if future is None:
                        raise BrokenProcessPool("pool broke mid-submit")
                    results[index] = future.result()
                except BrokenProcessPool:
                    broken = True
                    if attempts[index] >= 2:
                        exhausted.append(index)
                    else:
                        self.counters.incr(
                            "service.pool.shard_retries")
                        failed.append(index)
            if broken:
                # Rebuild before raising so concurrent (and future)
                # requests land on a fresh pool, not the corpse.
                self._retire_pool(generation)
            if exhausted:
                index = exhausted[0]
                self.counters.incr("service.pool.shard_failures",
                                   len(exhausted))
                raise WorkerCrashError(
                    f"worker process died running a shard of "
                    f"{len(shards[index])} task(s) twice; giving up "
                    "on this request", tasks=shards[index])
            remaining = failed
        flat: List[RunResult] = []
        for shard_results in results:
            assert shard_results is not None
            flat.extend(shard_results)
        self.counters.incr("service.pool.simulations", len(flat))
        return flat

    def shutdown(self) -> None:
        """Stop the pool; subsequent ``run_tasks`` calls fail."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
