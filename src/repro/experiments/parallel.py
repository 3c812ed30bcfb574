"""Execution backends for the experiment harness.

The repeated-runs protocol is embarrassingly parallel: every
``(workload, config, seed)`` triple is an independent simulation with
its own :class:`~repro.sim.engine.Simulator` and seeded random streams.
This module provides two interchangeable ways to execute a batch of
such run tasks:

* :class:`SerialBackend` — runs tasks in order in this process.  The
  default, and byte-for-byte identical to the historical behaviour of
  :class:`~repro.experiments.runner.Runner`.
* :class:`ProcessPoolBackend` — fans tasks out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Because every task
  carries its seed explicitly and results are reassembled by submission
  index, the output is **bit-identical** to a serial run — parallelism
  changes wall-clock time and nothing else.

Both backends optionally share a :class:`ResultCache` keyed on a
fingerprint of the workload's construction parameters, the machine
configuration, the seed, the scheduler factory and the task's
:class:`~repro.workloads.base.RunOptions`, so that re-running a sweep
(e.g. regenerating a figure after an unrelated edit) costs zero
simulations.

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
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Union

from repro.workloads.base import (
    RunOptions,
    RunResult,
    SchedulerFactory,
    Workload,
)


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
    """Run one task to completion (also the worker-process entry point)."""
    return task.workload.run_once(
        task.config, seed=task.seed,
        scheduler_factory=task.scheduler_factory, options=task.options)


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
    if task.workload.faults is None and options.faults is not None:
        # The options' schedule applies only to a workload without
        # its own (a workload-attached schedule is already covered by
        # the instance-attribute walk above).
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


class ResultCache:
    """In-memory map from task fingerprint to :class:`RunResult`.

    Share one instance across several backend calls (or several
    figures) to skip simulations whose inputs have not changed.

    Thread safety: lookup/store and the hit/miss counters mutate under
    one lock, so a cache shared by concurrent ``execute`` calls (the
    scenario service runs one backend call per admitted request, each
    on its own executor thread) keeps ``hits + misses == lookups``
    exactly.  Before the lock, a backend's pre-scan hit bump could
    interleave with another thread's post-pool miss/store bump and
    lose an increment — the counters drifted from the lookup count
    under load while the entries themselves stayed correct.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, RunResult] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Total lookups; always equals ``hits + misses``.
        self.lookups = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: str) -> Optional[RunResult]:
        with self._lock:
            result = self._entries.get(key)
            self.lookups += 1
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
            return result

    def store(self, key: str, result: RunResult) -> None:
        with self._lock:
            self._entries[key] = result

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.lookups = 0


class SerialBackend:
    """Run tasks one after another in the calling process.

    ``options`` is what callers building tasks for this backend put on
    them (default: ``RunOptions()``); ``sink``, when given, receives
    every returned result, in order.
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
        results = []
        cache = self.cache
        for task in tasks:
            if cache is not None:
                key = task_fingerprint(task)
                hit = cache.lookup(key)
                if hit is not None:
                    results.append(hit)
                    continue
            result = execute_task(task)
            self.simulations_run += 1
            if cache is not None:
                cache.store(key, result)
            results.append(result)
        if self.sink is not None:
            self.sink.extend(results)
        return results


class ProcessPoolBackend:
    """Fan tasks out over worker processes.

    Parameters
    ----------
    jobs:
        Worker count; defaults to ``os.cpu_count()``.
    cache:
        Optional shared :class:`ResultCache`.  Hits are served without
        touching the pool; missed results are stored on completion.
    chunk_size:
        Tasks per pickled submission.  The default splits the pending
        work into roughly four chunks per worker, amortizing pickling
        overhead while keeping the pool load-balanced.
    options, sink:
        As for :class:`SerialBackend`.

    Determinism: results are reassembled in submission order
    (``ProcessPoolExecutor.map`` preserves input order regardless of
    completion order), and each task's simulation derives all of its
    randomness from the task's own seed — so the result list is
    bit-identical to what :class:`SerialBackend` produces.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 chunk_size: Optional[int] = None,
                 options: Optional[RunOptions] = None,
                 sink: Optional[List[RunResult]] = None) -> None:
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.cache = cache
        self.chunk_size = chunk_size
        self.options = options if options is not None else RunOptions()
        self.sink = sink
        self.simulations_run = 0

    def execute(self, tasks: Iterable[RunTask]) -> List[RunResult]:
        tasks = list(tasks)
        results: List[Optional[RunResult]] = [None] * len(tasks)
        cache = self.cache
        pending: List[int] = []
        keys: Dict[int, str] = {}
        for index, task in enumerate(tasks):
            if cache is not None:
                keys[index] = task_fingerprint(task)
                hit = cache.lookup(keys[index])
                if hit is not None:
                    results[index] = hit
                    continue
            pending.append(index)
        if pending:
            chunk = self.chunk_size or max(
                1, len(pending) // (self.jobs * 4))
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                fresh = pool.map(execute_task,
                                 [tasks[i] for i in pending],
                                 chunksize=chunk)
                for index, result in zip(pending, fresh):
                    results[index] = result
                    self.simulations_run += 1
                    if cache is not None:
                        cache.store(keys[index], result)
        if self.sink is not None:
            self.sink.extend(results)  # type: ignore[arg-type]
        return results  # type: ignore[return-value]


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
