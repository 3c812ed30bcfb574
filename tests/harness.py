"""Reusable invariant checkers and golden-run registry.

The observability layer (:mod:`repro.metrics`) turns every simulation
into a set of structured books; this module holds the checkers that
audit those books, shared across the test suite:

* :func:`assert_conservation` — per-core ``busy + idle == duration``
  and per-class cycle accounting, via
  :meth:`repro.metrics.RunMetrics.conservation_errors`.
* :func:`trace_consistency_errors` — cross-checks a ``"sched"`` trace
  against the counters derived independently from it (dispatches,
  migrations, preemptions, pulls).
* :class:`FastCoreIdleWatcher` — the paper's §3.1.1 invariant as a
  live trace sink: under the asymmetry-aware policy no core goes idle
  while a strictly slower core still runs a thread.
* ``WORKLOAD_TABLE`` — every concrete workload class at a tiny size,
  for the contracts every run keeps (timeline, the run's fault
  schedule).
* ``GOLDEN_RUNS`` — the registry of small fixed-seed simulations whose
  canonical JSON lives in ``tests/golden/`` (regenerate with
  ``python tests/golden/regenerate.py``).
* Flight-recorder dumps — every golden rebuild runs with the default
  trace categories enabled, and :func:`flight_ring` takes the last
  :data:`FLIGHT_RECORDER_CAPACITY` records and spans of its timeline,
  in time order; when a golden comparison fails,
  :func:`write_flight_dump` writes that ring to
  ``$REPRO_FLIGHT_DIR`` (default: a ``repro-flight-dumps`` directory
  under the system temp dir) so the failure ships its own forensics.
* Event streams — :func:`record_event_stream` digests every event a
  run fires; ``tests/golden/event_streams.json`` pins the streams of
  :data:`EVENT_STREAM_SCENARIOS` under both execution modes, so a
  kernel refactor can prove it fires the same events in the same
  order, not merely that it ends with the same books.
* :func:`macro_queue_violations` — the invariant that lets schedulers
  read runqueues directly: a core running a coalesced macro slice
  always has an empty runqueue, checked between every two events.
* :func:`observed_surface` — everything a traced run exposes, the
  surface coalesced and sliced runs must agree on byte for byte.
* ``GOLDEN_FILES`` — text fixtures built by one call each: the
  SpecJBB report, the event streams, the 14 exhibit texts and the
  four ablation tables (``tests/golden/ablation_*.txt``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import System
from repro.analysis.stats import summarize
from repro.experiments.report import format_table
from repro.faults import (
    CoreOfflineEvent,
    CoreOnlineEvent,
    FaultSchedule,
    StallEvent,
    ThrottleEvent,
)
from repro.kernel import AsymmetryAwareScheduler, Compute, SimThread
from repro.kernel import kernel as _kernel
from repro.kernel.asym_scheduler import RankOnlyAsymmetryScheduler
from repro.machine.core import Core
from repro.metrics import (
    CONSERVATION_ATOL,
    CONSERVATION_RTOL,
    RunMetrics,
)
from repro.runtime.jvm import GCKind, jrockit
from repro.runtime.openmp import Loop, LoopSchedule, OmpProgram, OmpTeam
from repro.sim import trace as _trace
from repro.sim.events import EventQueue
from repro.sim.trace import TraceRecord, Tracer
from repro.sim.trace_export import TraceData, chrome_trace, trace_to_json
from repro.workloads.base import RunOptions, Workload
from repro.workloads.h264 import H264Encoder
from repro.workloads.jappserver import SpecJAppServer
from repro.workloads.lockstress import LockStress
from repro.workloads.pmake import Pmake
from repro.workloads.specjbb import SpecJBB
from repro.workloads.specomp import SpecOmpBenchmark
from repro.workloads.tpch.workload import TpchPowerRun, TpchQuery
from repro.workloads.webserver import ApacheWorkload, ZeusWorkload
from repro.workloads.webserver.apache import ApacheServer

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


# ----------------------------------------------------------------------
# Flight-recorder dumps
# ----------------------------------------------------------------------
#: Entries in a flight-recorder ring: the tail of a run's timeline.
FLIGHT_RECORDER_CAPACITY = 256

#: golden name -> flight-recorder entries of the most recent rebuild.
GOLDEN_FLIGHT: Dict[str, List[Dict[str, Any]]] = {}


def flight_dump_dir() -> Path:
    """Where failure dumps land (CI uploads this as an artifact)."""
    configured = os.environ.get("REPRO_FLIGHT_DIR")
    if configured:
        return Path(configured)
    return Path(tempfile.gettempdir()) / "repro-flight-dumps"


def write_flight_dump(label: str,
                      entries: List[Dict[str, Any]]) -> Path:
    """Persist flight-recorder ``entries`` as JSON; returns the path."""
    directory = flight_dump_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{label}.flight.json"
    payload = {"label": label, "entries": entries}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def flight_ring(timeline) -> List[Dict[str, Any]]:
    """The last :data:`FLIGHT_RECORDER_CAPACITY` records and spans of
    ``timeline``, oldest first, as JSON-ready dicts.

    ``timeline`` is a live :class:`~repro.sim.trace.Tracer` or a run's
    captured :class:`~repro.sim.trace_export.TraceData` (``None`` for
    an untraced run).  Records are placed at their time and spans at
    their end.  A tracer never clears what it retains, so this tail is
    the forensics of the instants before a failure.
    """
    if timeline is None:
        return []
    if isinstance(timeline, Tracer):
        records, spans = timeline.records(), timeline.spans()
    else:
        records, spans = timeline.records, timeline.spans
    items = ([(record.time, record.as_dict()) for record in records]
             + [(span.end, span.as_dict()) for span in spans])
    items.sort(key=lambda pair: pair[0])
    return [entry for _, entry in items[-FLIGHT_RECORDER_CAPACITY:]]


# ----------------------------------------------------------------------
# Invariant checkers
# ----------------------------------------------------------------------
def assert_conservation(metrics: RunMetrics,
                        rtol: float = CONSERVATION_RTOL,
                        atol: float = CONSERVATION_ATOL) -> None:
    """Fail with every violated conservation law listed."""
    errors = metrics.conservation_errors(rtol=rtol, atol=atol)
    assert not errors, \
        "cycle conservation violated:\n  " + "\n  ".join(errors)


def trace_consistency_errors(metrics: RunMetrics,
                             records: List[TraceRecord]) -> List[str]:
    """Discrepancies between a ``"sched"`` trace and the counters.

    The counters are incremented by the kernel independently of the
    tracer (they are always on; the trace is opt-in), so agreement is
    a genuine cross-check, not a tautology:

    * one ``run`` record per dispatch, per core and in total;
    * migrations: a thread ``run`` on a different core than its
      previous ``run``, per destination core and in total;
    * ``preempt`` + ``pull`` records == preemptions; ``pull`` records
      == pull migrations.
    """
    errors: List[str] = []
    runs = [r for r in records if r.get("event") == "run"]
    if len(runs) != metrics.context_switches:
        errors.append(f"trace has {len(runs)} run records but "
                      f"counters say {metrics.context_switches} "
                      "context switches")

    per_core_runs: Dict[int, int] = {}
    per_core_migrations: Dict[int, int] = {}
    last_core: Dict[str, int] = {}
    migrations = 0
    for record in runs:
        core = record.get("core")
        thread = record.get("thread")
        per_core_runs[core] = per_core_runs.get(core, 0) + 1
        previous = last_core.get(thread)
        if previous is not None and previous != core:
            migrations += 1
            per_core_migrations[core] = \
                per_core_migrations.get(core, 0) + 1
        last_core[thread] = core
    if migrations != metrics.migrations:
        errors.append(f"trace implies {migrations} migrations but "
                      f"counters say {metrics.migrations}")
    for core in metrics.cores:
        traced = per_core_runs.get(core.index, 0)
        if traced != core.dispatches:
            errors.append(f"core {core.index}: {traced} traced runs "
                          f"!= {core.dispatches} counted dispatches")
        traced_in = per_core_migrations.get(core.index, 0)
        if traced_in != core.migrations_in:
            errors.append(f"core {core.index}: {traced_in} traced "
                          f"migrations in != {core.migrations_in} "
                          "counted")

    preempts = sum(1 for r in records
                   if r.get("event") in ("preempt", "pull"))
    if preempts != metrics.preemptions:
        errors.append(f"trace has {preempts} preempt/pull records but "
                      f"counters say {metrics.preemptions} preemptions")
    pulls = sum(1 for r in records if r.get("event") == "pull")
    if pulls != metrics.preempt_pulls:
        errors.append(f"trace has {pulls} pull records but counters "
                      f"say {metrics.preempt_pulls} pull migrations")
    return errors


class FastCoreIdleWatcher:
    """Trace sink asserting fast cores never idle before slow ones.

    Paper §3.1.1: under the asymmetry-aware policy a core must not go
    idle while a strictly slower core still runs a thread — pull
    migration should have yanked the thread over.  Attach with
    :func:`watch_fast_cores` before the run, then call
    :meth:`assert_clean`.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.violations: List[tuple] = []

    def __call__(self, record: TraceRecord) -> None:
        if record.get("event") != "idle":
            return
        core = self.machine.cores[record.get("core")]
        for other in self.machine.cores:
            if other.rate < core.rate and \
                    other.current_thread is not None:
                self.violations.append(
                    (record.time, core.index, other.index))

    def assert_clean(self) -> None:
        assert self.violations == [], (
            "fast core went idle while a slower core was busy at: "
            f"{self.violations[:10]}")


def watch_fast_cores(system: System) -> FastCoreIdleWatcher:
    """Enable sched tracing on ``system`` and attach a watcher."""
    watcher = FastCoreIdleWatcher(system.machine)
    system.sim.tracer.enable("sched")
    system.sim.tracer.add_sink(watcher)
    return watcher


# ----------------------------------------------------------------------
# Every workload, tiny
# ----------------------------------------------------------------------
#: Class name -> a fresh instance small enough to run in well under a
#: second on ``WORKLOAD_TABLE_CONFIG``: one entry per concrete workload
#: class (a guard test in ``test_trace_export`` keeps it complete), so
#: a contract every run must keep (its timeline, the run's fault
#: schedule) is checked on all of them.
WORKLOAD_TABLE: Dict[str, Callable[[], Workload]] = {
    "SpecJBB": lambda: SpecJBB(warehouses=2, measurement_seconds=0.1,
                               warmup_seconds=0.05),
    "SpecJAppServer": lambda: SpecJAppServer(injection_rate=250),
    "TpchPowerRun": lambda: TpchPowerRun(queries=[3]),
    "TpchQuery": lambda: TpchQuery(3),
    "ApacheWorkload": lambda: ApacheWorkload(
        "light", measurement_seconds=0.05),
    "ZeusWorkload": lambda: ZeusWorkload(
        "light", measurement_seconds=0.05),
    "SpecOmpBenchmark": lambda: SpecOmpBenchmark("swim"),
    "H264Encoder": lambda: H264Encoder(frames=1),
    "Pmake": lambda: Pmake(n_files=10),
    "LockStress": lambda: LockStress(duration=0.1),
}
WORKLOAD_TABLE_CONFIG = "2f-2s/8"


# ----------------------------------------------------------------------
# Golden runs
# ----------------------------------------------------------------------
#: Run options recording the default trace categories.
TRACED = RunOptions(trace=frozenset(_trace.DEFAULT_TRACE_CATEGORIES))


def _traced_run_once(name: str, workload, *args,
                     faults: Optional[FaultSchedule] = None, **kwargs):
    """Run a workload under ``faults`` with the default trace
    categories recorded.

    Tracing is passive — it schedules no events and changes no
    metrics, so the golden payload is byte-identical either way — but
    the captured timeline feeds :data:`GOLDEN_FLIGHT` so a drifted
    fixture ships its flight-recorder dump.
    """
    result = workload.run_once(*args, options=replace(TRACED, faults=faults),
                               **kwargs)
    GOLDEN_FLIGHT[name] = flight_ring(result.trace)
    return result


def _golden_specjbb() -> Dict[str, Any]:
    """SPECjbb, stock scheduler, asymmetric machine (Figure 1 regime)."""
    workload = SpecJBB(warehouses=2, measurement_seconds=0.4,
                       warmup_seconds=0.1)
    result = _traced_run_once("specjbb_2f-2s_stock_seed42", workload,
                              "2f-2s/8", seed=42)
    return {
        "kind": "run",
        "workload": result.workload,
        "config": result.config,
        "seed": result.seed,
        "metrics": dict(result.metrics),
        "run_metrics": result.run_metrics.as_dict(),
    }


def _golden_tpch() -> Dict[str, Any]:
    """TPC-H Q3, asymmetry-aware scheduler (§3.3 with the kernel fix)."""
    workload = TpchQuery(query=3)
    result = _traced_run_once(
        "tpch_q3_1f-3s_asym_seed7", workload, "1f-3s/8", seed=7,
        scheduler_factory=AsymmetryAwareScheduler)
    return {
        "kind": "run",
        "workload": result.workload,
        "config": result.config,
        "seed": result.seed,
        "metrics": dict(result.metrics),
        "run_metrics": result.run_metrics.as_dict(),
    }


def _golden_sched_trace() -> Dict[str, Any]:
    """Full scheduler decision sequence of a tiny deterministic run.

    Four compute-only threads on the 1f-3s/8 machine under the
    asymmetry-aware policy: small enough that the whole event list is
    reviewable by hand, rich enough to exercise dispatch, preemption,
    pull migration and exit.
    """
    system = System.build("1f-3s/8", seed=11,
                          scheduler=AsymmetryAwareScheduler())
    system.sim.tracer.enable(*_trace.DEFAULT_TRACE_CATEGORIES)

    def body(cycles):
        yield Compute(cycles)

    for index, cycles in enumerate([4e8, 2.5e8, 1.5e8, 0.8e8]):
        system.kernel.spawn(SimThread(f"t{index}", body(cycles)))
    duration = system.run()
    GOLDEN_FLIGHT["sched_trace_1f-3s_asym_seed11"] = \
        flight_ring(system.sim.tracer)
    events = [record.as_dict()
              for record in system.sim.tracer.records("sched")]
    return {
        "kind": "trace",
        "config": "1f-3s/8",
        "seed": 11,
        "duration": duration,
        "events": events,
        "run_metrics": system.run_metrics().as_dict(),
    }


def golden_fault_schedule() -> FaultSchedule:
    """The fixed fault sequence of the fault-injection golden run.

    Exercises every event kind: a transient throttle that re-splits an
    in-flight slice, a hot-unplug that migrates the victim's work, a
    stall hitting a running thread, and the core coming back online.
    """
    return FaultSchedule([
        ThrottleEvent(0.03, 0, 0.25, duration=0.06),
        CoreOfflineEvent(0.05, 1),
        StallEvent(0.08, 2, 0.02),
        CoreOnlineEvent(0.12, 1),
        ThrottleEvent(0.15, 3, 0.125),
    ], seed=0, label="golden-fault-mix")


def observed_surface(config: str, scheduler, seed: int, coalesce: bool,
                     faults: bool, spawn: Callable[[Any], None]) -> str:
    """Canonical JSON of everything a traced run exposes to an observer.

    Builds ``config`` under ``scheduler`` with the default trace
    categories, installs the golden fault mix when ``faults``, lets
    ``spawn(kernel)`` start the threads and runs to completion; then
    checks conservation and renders the duration, the metrics, the
    ``"sched"`` records and the Chrome trace export.
    """
    system = System.build(config, seed=seed, scheduler=scheduler,
                          coalesce=coalesce)
    system.sim.tracer.enable(*_trace.DEFAULT_TRACE_CATEGORIES)
    if faults:
        golden_fault_schedule().install(system)
    spawn(system.kernel)
    duration = system.run()
    metrics = system.run_metrics()
    assert_conservation(metrics)
    result = SimpleNamespace(
        workload="coalescing-panel", config=config, seed=seed,
        trace=TraceData.from_system(system), run_metrics=metrics)
    return canonical_json({
        "duration": duration,
        "run_metrics": metrics.as_dict(),
        "sched_events": [record.as_dict() for record
                         in system.sim.tracer.records("sched")],
        "chrome_trace": trace_to_json(chrome_trace([result])),
    })


def _golden_fault_storm() -> Dict[str, Any]:
    """Compute threads under a fixed fault mix (dynamic asymmetry).

    Locks the fault-injection machinery byte-exactly: mid-slice
    re-splitting on throttle, offline migration, stall resume and the
    time-at-speed books all feed the fixture.
    """
    system = System.build("2f-2s/8", seed=5)
    system.sim.tracer.enable(*_trace.DEFAULT_TRACE_CATEGORIES)
    injector = golden_fault_schedule().install(system)

    def body(cycles):
        yield Compute(cycles)

    for index, cycles in enumerate([5e8, 3e8, 2e8, 1.2e8, 0.9e8]):
        system.kernel.spawn(SimThread(f"t{index}", body(cycles)))
    duration = system.run()
    GOLDEN_FLIGHT["fault_storm_2f-2s_seed5"] = \
        flight_ring(system.sim.tracer)
    events = [record.as_dict()
              for record in system.sim.tracer.records("faults")]
    return {
        "kind": "faults",
        "config": "2f-2s/8",
        "seed": 5,
        "duration": duration,
        "applied": injector.applied,
        "schedule": injector.schedule.as_dict(),
        "events": events,
        "run_metrics": system.run_metrics().as_dict(),
    }


def _golden_lock_storm() -> Dict[str, Any]:
    """Lock-heavy run under a throttle storm (slow-holder regime).

    LockStress on the asymmetric machine with transient throttles
    hitting every core: holders get slowed mid-critical-section, so
    the fixture pins the interaction between the lock layer
    (DESIGN.md §11) and the fault machinery — handoff bookkeeping,
    queue-depth peaks and the spin/busy conservation books.
    """
    workload = LockStress(n_threads=8, lock_kind="asym", duration=0.4)
    result = _traced_run_once("lock_storm_2f-2s_seed5", workload,
                              "2f-2s/8", seed=5, faults=_storm(0.4))
    return {
        "kind": "run",
        "workload": result.workload,
        "config": result.config,
        "seed": result.seed,
        "metrics": dict(result.metrics),
        "run_metrics": result.run_metrics.as_dict(),
    }


def _golden_specomp_static_weighted() -> Dict[str, Any]:
    """Speed-weighted OpenMP loops under a throttle storm.

    Swim with every loop forced onto the static_weighted schedule
    (DESIGN.md §14), on the asymmetric machine with transient
    throttles reprogramming duty cycles mid-loop: the fixture pins the
    split read from core rates at each loop's entry and the straggler
    tail booked when throttles leave one member computing alone,
    against the fault machinery, byte-exactly.
    """
    workload = SpecOmpBenchmark("swim", omp_schedule="static_weighted")
    result = _traced_run_once("specomp_static_weighted_2f-2s_seed5",
                              workload, "2f-2s/8", seed=5,
                              faults=_storm(2.0))
    return {
        "kind": "run",
        "workload": result.workload,
        "config": result.config,
        "seed": result.seed,
        "metrics": dict(result.metrics),
        "run_metrics": result.run_metrics.as_dict(),
    }


#: name -> zero-argument callable producing the canonical payload.
GOLDEN_RUNS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "specjbb_2f-2s_stock_seed42": _golden_specjbb,
    "tpch_q3_1f-3s_asym_seed7": _golden_tpch,
    "sched_trace_1f-3s_asym_seed11": _golden_sched_trace,
    "fault_storm_2f-2s_seed5": _golden_fault_storm,
    "lock_storm_2f-2s_seed5": _golden_lock_storm,
    "specomp_static_weighted_2f-2s_seed5":
        _golden_specomp_static_weighted,
}


#: A fixed, hand-written run-ledger slice feeding the report
#: fixture's service section.  Synthetic on purpose: a live server's
#: ledger carries wall-clock latencies, so a pinned fixture needs a
#: frozen one.  Every record must satisfy ``ledger_schema_errors``
#: in ``tools/check_schema.py``.
GOLDEN_LEDGER_RECORDS: List[Dict[str, Any]] = [
    {"format": 1, "index": 0, "request": "ping", "outcome": "ok"},
    {"format": 1, "index": 1, "request": "sweep", "outcome": "ok",
     "workload": "specjbb", "scheduler": "stock",
     "fingerprint": "00112233445566778899aabbccddeeff",
     "tasks": 6, "cache_hits": 0, "coalesced": 0, "fresh": 6,
     "queue_wait_seconds": 1.5e-05, "execute_seconds": 0.125,
     "jobs": 2},
    {"format": 1, "index": 2, "request": "sweep", "outcome": "ok",
     "workload": "specjbb", "scheduler": "asym",
     "fingerprint": "ffeeddccbbaa99887766554433221100",
     "tasks": 6, "cache_hits": 6, "coalesced": 0, "fresh": 0,
     "queue_wait_seconds": 8e-06},
    {"format": 1, "index": 3, "request": "stats", "outcome": "ok"},
    {"format": 1, "index": 4, "request": "sweep",
     "outcome": "overloaded", "workload": "specjbb",
     "scheduler": "stock"},
    {"format": 1, "index": 5, "request": "shutdown", "outcome": "ok"},
]


def golden_report_inputs():
    """The stock/asym sweeps the report fixture is built from.

    Small but non-trivial: the fixture SpecJBB scale over the three
    configurations whose USL axes differ, two seeds each — 12 short
    simulations total.
    """
    from repro.experiments.runner import Runner

    workload = SpecJBB(warehouses=2, measurement_seconds=0.4,
                       warmup_seconds=0.1)
    kwargs = dict(configs=["4f-0s", "2f-2s/8", "1f-3s/8"],
                  runs=2, base_seed=100)
    stock = Runner(**kwargs).run(workload)
    asym = Runner(scheduler_factory=AsymmetryAwareScheduler,
                  **kwargs).run(workload)
    return stock, asym


def _golden_report_files() -> Dict[str, str]:
    """The pinned SpecJBB performance report (markdown + JSON).

    Pins the whole report pipeline byte-exactly: sweep statistics,
    asym-vs-stock deltas, USL fits and residuals, the variability
    section, the ledger summary (from :data:`GOLDEN_LEDGER_RECORDS`)
    and the markdown renderer.  The benchmark-trajectory section is
    deliberately absent — it would drift on every BENCH pin update.
    """
    from repro.analysis.perf_report import (
        build_report,
        canonical_report_json,
        golden_metadata,
        render_markdown,
    )

    stock, asym = golden_report_inputs()
    report = build_report(
        stock, asym,
        ledger_records=GOLDEN_LEDGER_RECORDS,
        golden=golden_metadata(str(GOLDEN_DIR), stock.workload))
    return {
        "report_specjbb_quick.json": canonical_report_json(report),
        "report_specjbb_quick.md": render_markdown(report),
    }


# ----------------------------------------------------------------------
# Event streams
# ----------------------------------------------------------------------
def _describe_arg(arg: Any) -> str:
    """A stable rendering of one event argument (no ids or addresses)."""
    if isinstance(arg, Core):
        return f"core{arg.index}"
    if isinstance(arg, SimThread):
        return arg.name
    if isinstance(arg, float):
        return arg.hex()
    if arg is None or isinstance(arg, (bool, int, str)):
        return repr(arg)
    return type(arg).__qualname__


def record_event_stream(run: Callable[[], Any]) -> Dict[str, Any]:
    """Count and digest every event ``run()`` fires.

    Each fired event contributes its exact time, its callback's
    qualified name and its arguments, in firing order: two kernels
    produce the same digest iff they fire the same callbacks on the
    same objects at the same instants.  Recording wraps
    :meth:`EventQueue.pop_before`, the one call every run loop makes
    per event, and schedules nothing.
    """
    digest = hashlib.sha256()
    count = 0
    original = EventQueue.pop_before

    def recording(queue: EventQueue, limit: float):
        nonlocal count
        item = original(queue, limit)
        if item is not None:
            count += 1
            time, callback, args = item
            name = getattr(callback, "__qualname__",
                           type(callback).__qualname__)
            described = " ".join(_describe_arg(arg) for arg in args)
            digest.update(
                f"{float(time).hex()} {name} {described}\n".encode())
        return item

    EventQueue.pop_before = recording
    try:
        run()
    finally:
        EventQueue.pop_before = original
    return {"events": count, "sha256": digest.hexdigest()}


def macro_queue_violations(run: Callable[[], Any]) -> List[str]:
    """Every breach of the macro-slice queue invariant during ``run()``.

    A core with a live macro slice (``Kernel._macros``) must have an
    empty runqueue: that is what lets schedulers steal from and pull
    against ``Kernel.runqueues`` without splitting macros first.  The
    check runs for every kernel ``run()`` builds, before each event it
    fires — so after every event already fired — and once more when
    ``run()`` returns.  Like :func:`record_event_stream` it wraps
    :meth:`EventQueue.pop_before` and schedules nothing.
    """
    kernels: Dict[int, Any] = {}
    violations: List[str] = []
    original_init = _kernel.Kernel.__init__
    original_pop = EventQueue.pop_before

    def check(kernel) -> None:
        for index in kernel._macros:
            queued = len(kernel.runqueues[index])
            if queued:
                violations.append(
                    f"t={kernel.sim.now!r}: core{index} runs a macro "
                    f"slice with {queued} thread(s) queued")

    def init(kernel, sim, *args, **kwargs):
        original_init(kernel, sim, *args, **kwargs)
        # Keyed by queue identity; holding the kernel keeps the id live.
        kernels[id(sim._queue)] = kernel

    def checking(queue: EventQueue, limit: float):
        kernel = kernels.get(id(queue))
        if kernel is not None:
            check(kernel)
        return original_pop(queue, limit)

    _kernel.Kernel.__init__ = init
    EventQueue.pop_before = checking
    try:
        run()
    finally:
        _kernel.Kernel.__init__ = original_init
        EventQueue.pop_before = original_pop
    for kernel in kernels.values():
        check(kernel)
    return violations


@contextlib.contextmanager
def pinned_coalescing(enabled: bool) -> Iterator[None]:
    """Run with the default coalescing mode pinned to ``enabled`` by
    setting ``REPRO_NO_COALESCE``; restore the variable afterwards."""
    saved_env = os.environ.get("REPRO_NO_COALESCE")
    os.environ["REPRO_NO_COALESCE"] = "0" if enabled else "1"
    try:
        yield
    finally:
        if saved_env is None:
            del os.environ["REPRO_NO_COALESCE"]
        else:
            os.environ["REPRO_NO_COALESCE"] = saved_env


def _fault_mix_run() -> None:
    """The fault-storm golden's system, without tracing."""
    system = System.build("2f-2s/8", seed=5)
    golden_fault_schedule().install(system)

    def body(cycles):
        yield Compute(cycles)

    for index, cycles in enumerate([5e8, 3e8, 2e8, 1.2e8, 0.9e8]):
        system.kernel.spawn(SimThread(f"t{index}", body(cycles)))
    system.run()


def _traced_pinned_run() -> None:
    """Pinned contenders under sched/exec tracing and a mid-run
    observation."""
    system = System.build("1f-3s/8", seed=11,
                          scheduler=AsymmetryAwareScheduler())
    system.sim.tracer.enable(*_trace.DEFAULT_TRACE_CATEGORIES)

    def body(cycles):
        yield Compute(cycles)

    for index, cycles in enumerate([4e8, 2.5e8, 1.5e8, 0.8e8, 3e8]):
        affinity = {index % 2} if index >= 3 else None
        system.kernel.spawn(SimThread(f"t{index}", body(cycles),
                                      affinity=affinity))
    system.run(until=0.05)
    system.run_metrics()
    system.run()


def _contended_spin_run() -> None:
    """Two compute threads per core: round-robin time slicing."""
    system = System.build("2f-2s/8", seed=1)

    def body(cycles):
        yield Compute(cycles)

    for index in range(8):
        system.kernel.spawn(SimThread(f"t{index}", body(1.4e9)))
    system.run()


def _storm(duration: float) -> FaultSchedule:
    """A seeded throttle storm over all four cores, 25 events/s."""
    return FaultSchedule.throttle_storm(
        seed=5, duration=duration, cores=range(4),
        events_per_second=25.0, recovery_mean=0.02)


#: name -> zero-argument callable running one small simulation.  Each
#: leans on a different part of the kernel's hot path: blocking
#: wakeups (web servers, thread pools), spin and handoff locks,
#: placement under every policy, dynamic asymmetry, and coalesced
#: macro slices.
EVENT_STREAM_SCENARIOS: Dict[str, Callable[[], Any]] = {
    "apache_light_2f-2s_stock_seed3": lambda: ApacheWorkload(
        "light", measurement_seconds=0.3, warmup_seconds=0.05,
    ).run_once("2f-2s/8", seed=3),
    "apache_heavy_1f-3s_asym_seed3": lambda: ApacheWorkload(
        "heavy", measurement_seconds=0.3, warmup_seconds=0.05,
    ).run_once("1f-3s/4", seed=3,
               scheduler_factory=AsymmetryAwareScheduler),
    "zeus_heavy_3f-1s_rank_seed3": lambda: ZeusWorkload(
        "heavy", measurement_seconds=0.1, warmup_seconds=0.05,
    ).run_once("3f-1s/8", seed=3,
               scheduler_factory=RankOnlyAsymmetryScheduler),
    "jappserver_320_2f-2s_asym_seed3": lambda: SpecJAppServer(
        injection_rate=320, measurement_seconds=1.0, warmup_seconds=0.5,
    ).run_once("2f-2s/8", seed=3,
               scheduler_factory=AsymmetryAwareScheduler),
    "lockstress_spin_2f-2s_asym_seed3": lambda: LockStress(
        n_threads=8, lock_kind="spin", duration=0.3,
    ).run_once("2f-2s/8", seed=3,
               scheduler_factory=AsymmetryAwareScheduler),
    "lock_storm_asym_2f-2s_seed5": lambda: LockStress(
        n_threads=8, lock_kind="asym", duration=0.4,
    ).run_once("2f-2s/8", seed=5,
               options=RunOptions(faults=_storm(0.4))),
    "specjbb_2f-2s_stock_seed42": lambda: SpecJBB(
        warehouses=2, measurement_seconds=0.4, warmup_seconds=0.1,
    ).run_once("2f-2s/8", seed=42),
    "tpch_q3_1f-3s_asym_seed7": lambda: TpchQuery(query=3).run_once(
        "1f-3s/8", seed=7, scheduler_factory=AsymmetryAwareScheduler),
    "tpch_q9_par8_3f-1s_stock_seed7": lambda: TpchQuery(
        query=9, parallel_degree=8).run_once("3f-1s/4", seed=7),
    "specomp_weighted_storm_2f-2s_seed5": lambda: SpecOmpBenchmark(
        "swim", omp_schedule="static_weighted",
    ).run_once("2f-2s/8", seed=5,
               options=RunOptions(faults=_storm(1.0))),
    "specomp_dynamic_1f-3s_stock_seed5": lambda: SpecOmpBenchmark(
        "art", omp_schedule="dynamic").run_once("1f-3s/4", seed=5),
    "pmake_2f-2s_asym_seed5": lambda: Pmake(n_files=60).run_once(
        "2f-2s/4", seed=5, scheduler_factory=AsymmetryAwareScheduler),
    "h264_3f-1s_stock_seed5": lambda: H264Encoder(frames=2).run_once(
        "3f-1s/8", seed=5),
    "contended_spin_2f-2s_seed1": _contended_spin_run,
    "fault_mix_2f-2s_seed5": _fault_mix_run,
    "traced_pinned_1f-3s_asym_seed11": _traced_pinned_run,
}


def event_stream(name: str, coalesce: bool) -> Dict[str, Any]:
    """The recorded stream of one scenario under one execution mode."""
    with pinned_coalescing(coalesce):
        return record_event_stream(EVENT_STREAM_SCENARIOS[name])


def _golden_event_stream_files() -> Dict[str, str]:
    """Every scenario's event stream, coalesced and sliced."""
    payload = {
        "kind": "event_streams",
        "scenarios": {
            name: {mode: event_stream(name, coalesce)
                   for mode, coalesce in (("coalesced", True),
                                          ("sliced", False))}
            for name in sorted(EVENT_STREAM_SCENARIOS)},
    }
    return {"event_streams.json": canonical_json(payload)}


# ----------------------------------------------------------------------
# Exhibits
# ----------------------------------------------------------------------
def _golden_exhibit_files() -> Dict[str, str]:
    """Every exhibit's rendered text at the quick profile.

    The repository exists to reproduce these 14 texts, so any change
    that moves one shows up as a diff here.  Every exhibit runs on one
    backend whose unbounded cache serves the sweeps fig10 and table1
    repeat, as ``python -m repro all`` does.  Still most of a minute
    of simulation, so only ``regenerate.py --check`` (the drift step
    of CI's ``identity`` job) rebuilds them, not tier-1.
    """
    from repro.experiments.figures import ALL_EXHIBITS
    from repro.experiments.parallel import SerialBackend
    from repro.experiments.profiles import QUICK
    from repro.service.cache import ResultCache

    backend = SerialBackend(cache=ResultCache(max_memory_entries=None))
    return {f"exhibit_{name}.txt":
            module.render(module.run(QUICK, backend=backend)) + "\n"
            for name, module in ALL_EXHIBITS.items()}


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
# These sweep knobs the paper holds fixed, to show *why* the modelled
# mechanisms behave as they do (DESIGN.md §4).
def _ablation_apache_recycling() -> str:
    """Recycling threshold between the paper's 50 and 5000: recycling
    sooner buys stability with throughput.  Runs ``ApacheServer``'s
    default pool of 12 workers, not the 16 that fig06 forks."""
    rows = []
    for recycle in (50, 200, 1000, 5000):
        class Tuned(ApacheWorkload):
            def _build_server(self, system):
                return ApacheServer(system, recycle_after=recycle)
        workload = Tuned("light", measurement_seconds=1.5)
        summary = summarize([workload.run_once("2f-2s/8", seed=s)
                             .metric("throughput") for s in range(5)])
        rows.append([str(recycle), f"{summary.mean:.0f}",
                     f"{summary.cov:.3f}"])
    return "Apache recycling-threshold ablation (2f-2s/8)\n" + \
        format_table(["recycle_after", "mean req/s", "CoV"], rows)


def _ablation_gc_headroom() -> str:
    """Concurrent-GC trigger fraction: more headroom means the
    collector starts earlier and stalls less on slow placements."""
    rows = []
    for trigger in (0.5, 0.7, 0.9):
        class Tuned(SpecJBB):
            def _build_vm(self, system):
                return jrockit(system, gc=GCKind.CONCURRENT,
                               heap_capacity=self.heap_capacity,
                               live_bytes=self.live_bytes,
                               trigger_fraction=trigger)
        tuned = Tuned(warehouses=8, gc=GCKind.CONCURRENT,
                      measurement_seconds=1.0)
        summary = summarize([tuned.run_once("2f-2s/8", seed=s)
                             .metric("throughput") for s in range(5)])
        rows.append([f"{trigger:.1f}", f"{summary.mean:.0f}",
                     f"{summary.cov:.3f}"])
    return "SPECjbb concurrent-GC trigger ablation (2f-2s/8)\n" + \
        format_table(["trigger", "mean ops/s", "CoV"], rows)


def _ablation_omp_chunk() -> str:
    """Dynamic chunk size on 2f-2s/8: small chunks balance best but
    pay per-chunk dispatch overhead — the paper's "large chunk size to
    reduce allocation overhead" advice quantified."""
    rows = []
    for chunk in (1, 4, 16, 64):
        system = System.build("2f-2s/8", seed=3)
        team = OmpTeam(system)
        program = OmpProgram([
            Loop(256, 2.8e6, schedule=LoopSchedule.DYNAMIC,
                 chunk=chunk)])
        elapsed = team.execute(program)
        rows.append([str(chunk), f"{elapsed:.3f}s"])
    return "OpenMP dynamic chunk-size ablation (2f-2s/8)\n" + \
        format_table(["chunk", "runtime"], rows)


def _ablation_omp_remedies() -> str:
    """The asymmetry-aware kernel cannot fix statically parallelized
    OpenMP code (paper: the application must change instead)."""
    rows = []
    for label, factory in (("stock", None),
                           ("asym-aware", AsymmetryAwareScheduler)):
        bench = SpecOmpBenchmark("swim")
        runtime = bench.run_once(
            "2f-2s/8", seed=1,
            scheduler_factory=factory).metric("runtime")
        rows.append([label, f"{runtime:.2f}s"])
    modified = SpecOmpBenchmark("swim", variant="modified")
    runtime = modified.run_once("2f-2s/8", seed=1).metric("runtime")
    rows.append(["application change (dynamic)", f"{runtime:.2f}s"])
    return "Kernel fix vs. application fix on SPEC OMP swim " \
        "(2f-2s/8)\n" + format_table(["remedy", "runtime"], rows)


def _golden_ablation_files() -> Dict[str, str]:
    """The four ablation tables, about 3 s of simulation."""
    return {f"ablation_{name}.txt": build() + "\n" for name, build in (
        ("apache_recycling", _ablation_apache_recycling),
        ("gc_headroom", _ablation_gc_headroom),
        ("omp_chunk", _ablation_omp_chunk),
        ("omp_remedies", _ablation_omp_remedies))}


#: group name -> zero-argument callable producing {filename: text}.
#: Like GOLDEN_RUNS but for fixtures that are not single-run payloads
#: (one builder may emit several files sharing expensive inputs).
GOLDEN_FILES: Dict[str, Callable[[], Dict[str, str]]] = {
    "report_specjbb_quick": _golden_report_files,
    "event_streams": _golden_event_stream_files,
    "exhibits": _golden_exhibit_files,
    "ablations": _golden_ablation_files,
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def canonical_json(payload: Dict[str, Any]) -> str:
    """The byte-exact form stored in ``tests/golden/``."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_golden(name: str) -> Dict[str, Any]:
    with open(golden_path(name), "r", encoding="utf-8") as handle:
        return json.load(handle)
