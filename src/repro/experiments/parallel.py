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
configuration, the seed and the scheduler factory, so that re-running a
sweep (e.g. regenerating a figure after an unrelated edit) costs zero
simulations.
"""

from __future__ import annotations

import enum
import hashlib
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Union

from repro import faults as _faults
from repro import metrics as _metrics
from repro.kernel import kernel as _kernel
from repro.sim import trace as _trace
from repro.sim import trace_export as _trace_export
from repro.workloads.base import RunResult, SchedulerFactory, Workload


@dataclass(frozen=True)
class RunTask:
    """One independent simulation: a workload on a config with a seed."""

    workload: Workload
    config: str
    seed: int
    scheduler_factory: Optional[SchedulerFactory] = None
    #: True for a task whose result was produced analytically (USL
    #: interpolation in ``Runner.predict_sweep``) rather than by
    #: simulation.  Folded into the cache fingerprint so a predicted
    #: value can never be served where a simulation was requested.
    predicted: bool = False


def execute_task(task: RunTask) -> RunResult:
    """Run one task to completion (also the worker-process entry point)."""
    return task.workload.run_once(
        task.config, seed=task.seed,
        scheduler_factory=task.scheduler_factory)


def _worker_init(faults_payload, trace_categories, coalescing) -> None:
    """Replicate process-wide defaults into a pool worker.

    Workers must see the same default fault schedule, the same default
    trace categories *and* the same quantum-coalescing setting as the
    submitting process, or a ``--faults`` / ``--trace`` /
    ``--no-coalesce`` sweep would diverge between serial and parallel
    execution.  (Coalescing never changes results — replicating it
    keeps wall-clock behaviour and cache fingerprints consistent.)
    """
    _faults.install_default_payload(faults_payload)
    _trace.install_default_categories(trace_categories)
    _kernel.install_coalescing(coalescing)


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


#: Sentinel distinguishing "no override given" from an explicit None
#: (None is a meaningful value for both overrides: no tracing, and —
#: never, for coalescing — so a plain default would be ambiguous).
_UNSET = object()


def task_fingerprint(task: RunTask,
                     trace_categories: object = _UNSET,
                     coalesce: object = _UNSET) -> str:
    """Stable cache key for a task.

    Two tasks share a fingerprint iff they would produce the same
    :class:`RunResult`: same workload class, same constructor state
    (every instance attribute, recursively), same config, same seed
    and same scheduler factory.

    ``trace_categories`` and ``coalesce`` override the process-wide
    defaults that are otherwise folded in — the scenario service
    (:mod:`repro.service`) carries both per request instead of
    mutating process globals, but its keys must coincide exactly with
    the ones a CLI run with the same settings would produce, so the
    disk cache is shared between the two front ends.
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
    if task.workload.faults is None:
        # The workload will fall back to the process-wide default
        # fault schedule at run time, so it is part of the task's
        # identity (a workload-attached schedule is already covered by
        # the instance-attribute walk above).
        default = _faults.default_schedule()
        if default is not None:
            parts.append(f"faults={default.to_json()}")
    # The default trace categories decide whether a RunResult carries a
    # timeline, so traced and untraced runs never share cache entries.
    categories: Optional[FrozenSet[str]]
    if trace_categories is _UNSET:
        categories = _trace.default_categories()
    else:
        categories = (frozenset(trace_categories)  # type: ignore[arg-type]
                      if trace_categories is not None else None)
    if categories:
        parts.append("trace=" + ",".join(sorted(categories)))
    # The resolved coalescing mode is folded in even though coalesced
    # and sliced runs are byte-identical: a cache hit must never mask a
    # divergence the identity tests are trying to catch.
    mode = (_kernel.coalescing_enabled() if coalesce is _UNSET
            else bool(coalesce))
    parts.append(f"coalesce={mode}")
    if task.predicted:
        # Analytic (USL-interpolated) results live in a disjoint key
        # space from simulated ones: a cache warmed by predict_sweep
        # must never satisfy a full-sweep lookup with a model output.
        parts.append("predicted=True")
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
    """Run tasks one after another in the calling process."""

    jobs = 1

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self.cache = cache
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
        sink = _metrics.active_sink()
        if sink is not None:
            sink.extend(results)
        trace_sink = _trace_export.active_sink()
        if trace_sink is not None:
            trace_sink.extend(results)
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

    Determinism: results are reassembled in submission order
    (``ProcessPoolExecutor.map`` preserves input order regardless of
    completion order), and each task's simulation derives all of its
    randomness from the task's own seed — so the result list is
    bit-identical to what :class:`SerialBackend` produces.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 chunk_size: Optional[int] = None) -> None:
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.cache = cache
        self.chunk_size = chunk_size
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
            with ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_worker_init,
                    initargs=(_faults.default_schedule_payload(),
                              _trace.default_categories(),
                              _kernel.coalescing_enabled()),
            ) as pool:
                fresh = pool.map(execute_task,
                                 [tasks[i] for i in pending],
                                 chunksize=chunk)
                for index, result in zip(pending, fresh):
                    results[index] = result
                    self.simulations_run += 1
                    if cache is not None:
                        # The key computed at pre-scan time: fingerprint
                        # inputs are process globals that a concurrent
                        # caller could legitimately change mid-execute.
                        cache.store(keys[index], result)
        sink = _metrics.active_sink()
        if sink is not None:
            sink.extend(results)
        trace_sink = _trace_export.active_sink()
        if trace_sink is not None:
            trace_sink.extend(results)
        return results  # type: ignore[return-value]


Backend = Union[SerialBackend, ProcessPoolBackend]


def make_backend(jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None) -> Backend:
    """Backend for a worker count.

    ``None``, ``0`` or ``1`` mean serial execution; anything larger
    builds a process pool with that many workers.
    """
    if jobs is None or jobs <= 1:
        return SerialBackend(cache=cache)
    return ProcessPoolBackend(jobs=jobs, cache=cache)
