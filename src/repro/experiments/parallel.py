"""Execution backends for the experiment harness.

The repeated-runs protocol is embarrassingly parallel: every
``(workload, config, seed)`` triple is an independent simulation with
its own :class:`~repro.sim.engine.Simulator` and seeded random streams.
This module provides two interchangeable ways to execute a batch of
such run tasks:

* :class:`SerialBackend` — runs tasks in order in this process.  The
  default, and byte-for-byte identical to the historical behaviour of
  :class:`~repro.experiments.runner.Runner`.
* :class:`ProcessPoolBackend` — a warm pool of worker processes: an
  idle worker takes the next slice of a call's tasks, and a slice
  whose worker dies is retried once.  Because every task carries its
  seed explicitly and results are reassembled by task index, the
  output is **bit-identical** to a serial run — parallelism changes
  wall-clock time and nothing else.

Both share :meth:`SerialBackend.execute`: an optional
:class:`~repro.service.cache.ResultCache`, keyed on
:func:`task_fingerprint` (the workload's construction parameters, the
machine configuration, the seed, the scheduler factory and the task's
:class:`~repro.workloads.base.RunOptions`), serves known results, so
re-running a sweep (e.g. regenerating a figure after an unrelated
edit) costs zero simulations; the backend's ``run_tasks`` simulates
the misses.

A task depends on nothing but itself: its ``RunOptions`` (fault
schedule, trace categories, coalescing mode) travel with it into
worker processes, so no process-wide state needs copying.  A backend
carries the options its callers put on the tasks they build
(``backend.options``) and, optionally, a ``sink`` list receiving every
result it returns, in order (the CLI's ``--metrics-out`` and
``--trace-out``).
"""

from __future__ import annotations

import enum
import hashlib
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ReproError
from repro.metrics import CounterBag
from repro.workloads.base import (
    RunOptions,
    RunResult,
    SchedulerFactory,
    Workload,
)

if TYPE_CHECKING:
    from repro.service.cache import ResultCache


@dataclass(frozen=True)
class RunTask:
    """One independent simulation: a workload on a config with a seed,
    run under ``options``."""

    workload: Workload
    config: str
    seed: int
    scheduler_factory: Optional[SchedulerFactory] = None
    options: RunOptions = field(default_factory=RunOptions)


def execute_task(task: RunTask) -> RunResult:
    """Run one task to completion."""
    return task.workload.run_once(
        task.config, seed=task.seed,
        scheduler_factory=task.scheduler_factory, options=task.options)


def execute_tasks(tasks: Sequence[RunTask]) -> List[RunResult]:
    """Run tasks in order: a serial backend's batch, and the unit of
    work a pool worker process receives."""
    return [execute_task(task) for task in tasks]


def _stable_repr(value: object,
                 _path: FrozenSet[int] = frozenset()) -> str:
    """A ``repr`` that is the same in every interpreter.

    Primitives use their ordinary ``repr``.  An Enum member renders as
    ``module.Class.NAME``: walking it would reach its class's methods,
    whose reprs carry memory addresses.  Containers recurse; any other
    object renders as its qualified class name plus its recursively
    rendered instance attributes in name order, so no
    ``<... at 0x...>`` address reaches a cache key.  Only a reference
    back to an object still being rendered (a true cycle) renders as
    ``<cycle>``; an object shared by two attributes renders in full at
    both, so object identity never changes a key.
    """
    if isinstance(value, (int, float, str, bytes, bool, type(None))):
        return repr(value)
    if isinstance(value, enum.Enum):
        cls = type(value)
        return f"{cls.__module__}.{cls.__qualname__}.{value.name}"
    if id(value) in _path:
        return "<cycle>"
    _path = _path | {id(value)}
    if isinstance(value, (list, tuple)):
        body = ", ".join(_stable_repr(item, _path) for item in value)
        return f"[{body}]" if isinstance(value, list) else f"({body})"
    if isinstance(value, dict):
        body = ", ".join(
            f"{_stable_repr(k, _path)}: {_stable_repr(v, _path)}"
            for k, v in sorted(value.items(), key=repr))
        return "{" + body + "}"
    cls = type(value)
    state = getattr(value, "__dict__", None)
    if state is not None:
        body = ", ".join(f"{name}={_stable_repr(attr, _path)}"
                         for name, attr in sorted(state.items()))
        return f"{cls.__module__}.{cls.__qualname__}({body})"
    return repr(value)


def task_fingerprint(task: RunTask) -> str:
    """Stable cache key for a task.

    Two tasks share a fingerprint iff they would produce the same
    :class:`RunResult`: same workload class, same constructor state
    (every instance attribute, recursively), same config, same seed,
    same scheduler factory and same options.  The scenario service
    (:mod:`repro.service`) keys its disk cache the same way, so a
    CLI run and a request with the same settings share entries.
    """
    cls = type(task.workload)
    parts = [f"{cls.__module__}.{cls.__qualname__}"]
    for name, value in sorted(vars(task.workload).items()):
        parts.append(f"{name}={_stable_repr(value)}")
    factory = task.scheduler_factory
    if factory is not None:
        parts.append("scheduler="
                     f"{getattr(factory, '__module__', '')}."
                     f"{getattr(factory, '__qualname__', repr(factory))}")
    options = task.options
    if options.faults is not None:
        parts.append(f"faults={options.faults.to_json()}")
    # The trace categories decide whether a RunResult carries a
    # timeline, so traced and untraced runs never share cache entries.
    if options.trace:
        parts.append("trace=" + ",".join(sorted(options.trace)))
    # The coalescing mode is folded in even though coalesced and
    # sliced runs are byte-identical: a cache hit must never mask a
    # divergence the identity tests are trying to catch.
    parts.append(f"coalesce={options.coalesce}")
    parts.append(f"config={task.config}")
    parts.append(f"seed={task.seed}")
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8"))
    return digest.hexdigest()


class WorkerCrashError(ReproError):
    """A worker process died twice running the attached tasks."""

    def __init__(self, message: str,
                 tasks: Sequence[RunTask] = ()) -> None:
        super().__init__(message)
        self.tasks = tuple(tasks)


class SerialBackend:
    """Run tasks one after another in the calling process.

    ``cache`` is an optional shared
    :class:`~repro.service.cache.ResultCache`; ``options`` is what
    callers building tasks for this backend put on them (default:
    ``RunOptions()``); ``sink``, when given, receives every returned
    result, in order.
    """

    jobs = 1

    def __init__(self, cache: Optional[ResultCache] = None,
                 options: Optional[RunOptions] = None,
                 sink: Optional[List[RunResult]] = None) -> None:
        self.cache = cache
        self.options = options if options is not None else RunOptions()
        self.sink = sink
        #: Simulations actually executed (cache hits excluded).
        self.simulations_run = 0

    def execute(self, tasks: Iterable[RunTask]) -> List[RunResult]:
        """Results for ``tasks`` in task order: cache hits are served,
        the misses simulated by :meth:`run_tasks` and stored."""
        tasks = list(tasks)
        results: List[Optional[RunResult]] = [None] * len(tasks)
        keys: Dict[int, str] = {}
        cache = self.cache
        if cache is not None:
            for index, task in enumerate(tasks):
                keys[index] = task_fingerprint(task)
                results[index] = cache.lookup(keys[index])
        misses = [index for index, result in enumerate(results)
                  if result is None]
        fresh = self.run_tasks([tasks[index] for index in misses])
        self.simulations_run += len(fresh)
        for index, result in zip(misses, fresh):
            results[index] = result
            if cache is not None:
                cache.store(keys[index], result)
        if self.sink is not None:
            self.sink.extend(results)  # type: ignore[arg-type]
        return results  # type: ignore[return-value]

    def run_tasks(self, tasks: Sequence[RunTask]) -> List[RunResult]:
        """Simulate every task; results in task order."""
        return execute_tasks(tasks)

    def shutdown(self) -> None:
        """Release worker processes (a serial backend has none)."""


class ProcessPoolBackend(SerialBackend):
    """Simulate on a warm pool of worker processes.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` or below 1 means ``os.cpu_count()``.
    cache, options, sink:
        As for :class:`SerialBackend`.

    The pool starts on the first :meth:`run_tasks` call and serves
    every later one (all of a CLI invocation's ``execute`` calls, all
    of the scenario server's batches) until :meth:`shutdown`.  A call
    submits its tasks as about two contiguous slices per worker, and
    an idle worker takes the next slice.  Not one submission per task:
    each submission costs the calling process executor bookkeeping
    (about 0.4 ms of CPU on a 2-CPU Xeon VM), which the scenario
    server would spend on the process that answers cached requests
    (DESIGN.md §2.6).

    Determinism: results are reassembled by task index, and each
    simulation derives all of its randomness from its task's own seed,
    so the result list is bit-identical to :class:`SerialBackend`'s.

    Crash containment: a worker dying (OOM kill, a segfault in an
    extension, ``os._exit``) breaks the whole ``ProcessPoolExecutor``.
    The backend then replaces the pool and resubmits every slice the
    death lost; the tasks of a slice lost twice raise
    :class:`WorkerCrashError`.  Concurrent callers (the server's batch
    threads) share the pool and its rebuilds, so one poisoned request
    cannot wedge the others.  ``counters`` holds
    ``service.pool.starts``, ``.rebuilds``, ``.retries`` (tasks
    resubmitted) and ``.failures`` (tasks given up on).
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 options: Optional[RunOptions] = None,
                 sink: Optional[List[RunResult]] = None) -> None:
        super().__init__(cache=cache, options=options, sink=sink)
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.counters = CounterBag()
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._closed = False

    def _pool_handle(self) -> Tuple[ProcessPoolExecutor, int]:
        """The live pool and its generation, starting it if needed."""
        with self._lock:
            if self._closed:
                raise RuntimeError("backend is shut down")
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

    def run_tasks(self, tasks: Sequence[RunTask]) -> List[RunResult]:
        """Simulate every task on the warm pool; results in task order.

        Blocking and thread-safe: the server calls it from one thread
        per admitted batch.  Raises :class:`WorkerCrashError` if a
        worker dies twice running the same tasks.
        """
        size = max(1, (len(tasks) + 2 * self.jobs - 1) // (2 * self.jobs))
        slices = [tasks[start:start + size]
                  for start in range(0, len(tasks), size)]
        results: List[List[RunResult]] = [[] for _ in slices]
        tries = [0] * len(slices)
        pending = list(range(len(slices)))
        while pending:
            pool, generation = self._pool_handle()
            futures = {}
            try:
                for index in pending:
                    tries[index] += 1
                    futures[index] = pool.submit(execute_tasks,
                                                 slices[index])
            except BrokenProcessPool:
                pass  # died mid-submit: the rest go round again
            lost = [index for index in pending if index not in futures]
            for index, future in futures.items():
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    lost.append(index)
            if not lost:
                break
            # Rebuild before raising, so concurrent and later calls
            # land on a fresh pool rather than the broken one.
            self._retire_pool(generation)
            dead = [task for index in sorted(lost) if tries[index] >= 2
                    for task in slices[index]]
            if dead:
                with self._lock:
                    self.counters.incr("service.pool.failures",
                                       len(dead))
                raise WorkerCrashError(
                    f"worker process died running {len(dead)} "
                    "task(s) twice; giving up", tasks=dead)
            with self._lock:
                self.counters.incr("service.pool.retries", sum(
                    len(slices[index]) for index in lost))
            pending = sorted(lost)
        return [result for chunk in results for result in chunk]

    def shutdown(self) -> None:
        """Stop the pool; later :meth:`run_tasks` calls fail."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


Backend = Union[SerialBackend, ProcessPoolBackend]


def make_backend(jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 options: Optional[RunOptions] = None,
                 sink: Optional[List[RunResult]] = None) -> Backend:
    """Backend for a worker count.

    ``None``, ``0`` or ``1`` mean serial execution; anything larger
    builds a process pool with that many workers.  ``options`` and
    ``sink`` are as for :class:`SerialBackend`.
    """
    if jobs is None or jobs <= 1:
        return SerialBackend(cache=cache, options=options, sink=sink)
    return ProcessPoolBackend(jobs=jobs, cache=cache, options=options,
                              sink=sink)
