"""Always-on structured simulation counters (the observability layer).

The paper's whole argument rests on measurement: per-configuration
throughput, variance, and *where threads actually ran*.  End-of-run
workload metrics alone cannot show the mechanisms — a GC thread stuck
on a slow core, migration churn, fast cores idling — so every
simulation now collects a cheap set of structured counters:

* per-core busy/idle second accounting (independently accumulated, so
  ``busy + idle == duration`` is a real conservation invariant, not an
  identity);
* per-core retired cycles, dispatches, incoming migrations,
  preemptions and run-queue length samples (observed at each
  dispatch);
* kernel totals (context switches, migrations, preemptions, pull
  migrations) and thread lifecycle counts;
* per-thread busy seconds/cycles broken down by core speed class
  (fast vs slow), the observable behind Figures 1-10;
* a :class:`CounterBag` of named workload counters (GC collections,
  TPC-H sub-query dispatch targets, ...) that runtime and workload
  models increment through :attr:`MetricsCollector.counters`.

Collection is **always on**.  The hot-path cost is a handful of list
element increments per scheduler dispatch — the same order of cost as
the existing ``if "sched" in tracer.active`` guards — and is bounded
by the engine throughput benchmark (see ``benchmarks/``): the counter
layer must stay within 5% of the uninstrumented kernel.

At the end of a run the live :class:`MetricsCollector` is snapshotted
into an immutable :class:`RunMetrics`, which is attached to every
:class:`~repro.workloads.base.RunResult`, merged deterministically
across repetitions (and across worker processes — parallel and serial
sweeps produce byte-identical metrics), rendered by
:mod:`repro.experiments.report` and exported as JSON by the CLI's
``--metrics-out``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.histogram import LatencyHistogram

#: Latency histograms every run collects (see :mod:`repro.histogram`):
#: ready-to-dispatch wait, retired compute slice length, and the
#: off-CPU gap a thread crosses when it migrates between cores.
HISTOGRAM_NAMES = ("sched_latency_seconds", "slice_seconds",
                   "migration_gap_seconds")

#: Relative tolerance used by the conservation checks: floating-point
#: accumulation of many slices loses a few ULPs per operation, nothing
#: more.
CONSERVATION_RTOL = 1e-9

#: Absolute slack (seconds / cycles) for runs short enough that the
#: relative term underflows.
CONSERVATION_ATOL = 1e-6


class CounterBag:
    """Insertion-ordered named counters for workload-level hooks.

    Workload and runtime models increment counters by name::

        system.counters.incr("gc.collections")
        system.counters.incr("db2.dispatch.slow", 3)

    Increment order is deterministic (it follows simulation order), so
    the serialized form is identical between serial and parallel
    sweeps of the same seeds.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def incr(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (default 1) to the named counter."""
        counts = self._counts
        counts[name] = counts.get(name, 0.0) + value

    def set_max(self, name: str, value: float) -> None:
        """Raise the named high-water-mark counter to ``value``.

        Counters maintained this way should be named ``*.max_*`` so
        :meth:`RunMetrics.merge` combines them by maximum rather than
        by summation.
        """
        counts = self._counts
        current = counts.get(name)
        if current is None or value > current:
            counts[name] = value

    def get(self, name: str, default: float = 0.0) -> float:
        return self._counts.get(name, default)

    def as_dict(self) -> Dict[str, float]:
        """A copy of the counters in insertion order."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterBag({self._counts!r})"


@dataclass
class CoreMetrics:
    """Counters for one core over one run (or merged runs)."""

    index: int
    #: "fast" when the core runs at the machine's top rate, else "slow".
    speed_class: str
    #: Effective cycle rate at snapshot time (cycles/second).
    rate_hz: float
    busy_seconds: float
    idle_seconds: float
    busy_cycles: float
    dispatches: int
    migrations_in: int
    preemptions: int
    runqueue_samples: int
    runqueue_total: int
    runqueue_max: int
    #: Wall seconds the core spent at each duty cycle (keys are the
    #: duty fractions rendered with ``%g``, e.g. ``"0.25"``).  With no
    #: dynamic reprogramming this holds a single entry equal to the
    #: run duration; under fault injection the entries sum to the
    #: duration — a conservation invariant in its own right.
    time_at_speed: Dict[str, float] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Busy fraction of this core's observed time."""
        total = self.busy_seconds + self.idle_seconds
        return self.busy_seconds / total if total > 0 else 0.0

    @property
    def mean_runqueue(self) -> float:
        """Mean queue length observed at dispatch points."""
        if self.runqueue_samples == 0:
            return 0.0
        return self.runqueue_total / self.runqueue_samples

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "speed_class": self.speed_class,
            "rate_hz": self.rate_hz,
            "busy_seconds": self.busy_seconds,
            "idle_seconds": self.idle_seconds,
            "busy_cycles": self.busy_cycles,
            "dispatches": self.dispatches,
            "migrations_in": self.migrations_in,
            "preemptions": self.preemptions,
            "runqueue_samples": self.runqueue_samples,
            "runqueue_total": self.runqueue_total,
            "runqueue_max": self.runqueue_max,
            "time_at_speed": dict(self.time_at_speed),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CoreMetrics":
        return cls(**data)


@dataclass
class RunMetrics:
    """Structured counters from one simulation run (or a merge).

    Produced by :meth:`MetricsCollector.snapshot`, attached to every
    :class:`~repro.workloads.base.RunResult`, and serializable to/from
    plain JSON.  ``runs`` counts how many runs were merged into this
    object (1 for a single run).
    """

    config: str
    scheduler: str
    duration: float
    context_switches: int
    migrations: int
    preemptions: int
    preempt_pulls: int
    threads_spawned: int
    threads_finished: int
    runs: int = 1
    cores: List[CoreMetrics] = field(default_factory=list)
    #: Busy seconds/cycles aggregated by core speed class.
    class_busy_seconds: Dict[str, float] = field(default_factory=dict)
    class_busy_cycles: Dict[str, float] = field(default_factory=dict)
    #: Per-thread cycles by speed class: name -> {"fast": c, "slow": c}.
    thread_class_cycles: Dict[str, Dict[str, float]] = \
        field(default_factory=dict)
    #: Named workload counters (see :class:`CounterBag`).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Streaming latency distributions keyed by :data:`HISTOGRAM_NAMES`
    #: (answer "how is it distributed", where counters answer "how
    #: much"; see :mod:`repro.histogram`).
    histograms: Dict[str, LatencyHistogram] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    def core(self, index: int) -> CoreMetrics:
        for core in self.cores:
            if core.index == index:
                return core
        raise KeyError(f"no metrics for core {index}")

    @property
    def total_busy_seconds(self) -> float:
        return sum(core.busy_seconds for core in self.cores)

    @property
    def total_busy_cycles(self) -> float:
        return sum(core.busy_cycles for core in self.cores)

    def utilization(self) -> Dict[int, float]:
        """Busy fraction per core index."""
        return {core.index: core.utilization for core in self.cores}

    def fast_cores(self) -> List[CoreMetrics]:
        return [c for c in self.cores if c.speed_class == "fast"]

    def slow_cores(self) -> List[CoreMetrics]:
        return [c for c in self.cores if c.speed_class == "slow"]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def conservation_errors(self,
                            rtol: float = CONSERVATION_RTOL,
                            atol: float = CONSERVATION_ATOL,
                            ) -> List[str]:
        """Violations of the cycle-conservation invariants.

        Busy and idle seconds are accumulated *independently* (idle at
        slice starts, busy at slice retires), so per core::

            busy_seconds + idle_seconds == duration
            busy_cycles == sum of thread cycles retired on the core

        An empty list means the books balance.
        """
        errors: List[str] = []
        duration = self.duration
        slack = rtol * max(duration, 1.0) + atol
        for core in self.cores:
            accounted = core.busy_seconds + core.idle_seconds
            if abs(accounted - duration) > slack:
                errors.append(
                    f"core {core.index}: busy {core.busy_seconds!r} + "
                    f"idle {core.idle_seconds!r} = {accounted!r} != "
                    f"duration {duration!r}")
            if core.busy_seconds < 0 or core.idle_seconds < 0:
                errors.append(
                    f"core {core.index}: negative time accounting")
            if core.time_at_speed:
                at_speed = sum(core.time_at_speed.values())
                if abs(at_speed - duration) > slack:
                    errors.append(
                        f"core {core.index}: time-at-speed books total "
                        f"{at_speed!r} != duration {duration!r}")
        class_cycles: Dict[str, float] = {}
        for per_class in self.thread_class_cycles.values():
            for speed_class, cycles in per_class.items():
                class_cycles[speed_class] = \
                    class_cycles.get(speed_class, 0.0) + cycles
        for speed_class, total in self.class_busy_cycles.items():
            threads_total = class_cycles.get(speed_class, 0.0)
            cycle_slack = rtol * max(total, 1.0) + atol
            if abs(threads_total - total) > cycle_slack:
                errors.append(
                    f"{speed_class} cores retired {total!r} cycles but "
                    f"threads account for {threads_total!r}")
        # Spin-waiting is real work burned on a core, so the cycles
        # the lock layer attributes to spinning can never exceed the
        # cycles the cores retired (spin cycles ⊆ busy cycles).  Gated
        # on key presence: runs without spin-kind locks stay silent.
        spin_cycles = self.counters.get("lock.spin_cycles")
        if spin_cycles is not None:
            busy_cycles = self.total_busy_cycles
            cycle_slack = rtol * max(busy_cycles, 1.0) + atol
            if spin_cycles < 0:
                errors.append(
                    f"lock.spin_cycles is negative: {spin_cycles!r}")
            elif spin_cycles > busy_cycles + cycle_slack:
                errors.append(
                    f"lock.spin_cycles {spin_cycles!r} exceeds total "
                    f"busy cycles {busy_cycles!r}")
        # The OpenMP runtime's scheduling overheads obey the same
        # bound: dispatch grabs and straggler tails are cycles retired
        # on cores, never bookkeeping inventions.
        for name in ("omp.dispatch_cycles", "omp.straggler_cycles"):
            omp_cycles = self.counters.get(name)
            if omp_cycles is None:
                continue
            busy_cycles = self.total_busy_cycles
            cycle_slack = rtol * max(busy_cycles, 1.0) + atol
            if omp_cycles < 0:
                errors.append(f"{name} is negative: {omp_cycles!r}")
            elif omp_cycles > busy_cycles + cycle_slack:
                errors.append(
                    f"{name} {omp_cycles!r} exceeds total busy "
                    f"cycles {busy_cycles!r}")
        # Coalescing bookkeeping: every armed macro slice must be
        # settled exactly once — completed, split, absorbed, degraded
        # through the defensive fallback, or still live at snapshot
        # time.  Exact integer identity; gated on key presence so
        # sliced runs (no coalesce counters) stay silent.
        counters = self.counters
        armed = counters.get("coalesce.macros_armed")
        if armed is not None:
            settled = (counters.get("coalesce.macros_completed", 0.0)
                       + counters.get("coalesce.macros_split", 0.0)
                       + counters.get("coalesce.macros_absorbed", 0.0)
                       + counters.get("coalesce.macros_live", 0.0)
                       + counters.get("coalesce.macro_fallback", 0.0))
            if armed != settled:
                errors.append(
                    f"coalesce.macros: {armed!r} armed but {settled!r} "
                    "settled (completed + split + absorbed + fallback "
                    "+ live)")
        return errors

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def as_dict(self, include_coalesce: bool = False) -> Dict[str, Any]:
        """JSON-ready mapping of the run's observable surface.

        ``coalesce.*`` counters measure the macro-slice fast path
        itself, so they differ between coalesced and sliced executions
        of the same run by construction.  They are excluded by default
        — the serialized surface is the byte-identity contract the
        coalescing tests and golden fixtures compare — and included
        only on request (efficacy reports, debugging).
        """
        return {
            "config": self.config,
            "scheduler": self.scheduler,
            "duration": self.duration,
            "runs": self.runs,
            "context_switches": self.context_switches,
            "migrations": self.migrations,
            "preemptions": self.preemptions,
            "preempt_pulls": self.preempt_pulls,
            "threads_spawned": self.threads_spawned,
            "threads_finished": self.threads_finished,
            "cores": [core.as_dict() for core in self.cores],
            "class_busy_seconds": dict(self.class_busy_seconds),
            "class_busy_cycles": dict(self.class_busy_cycles),
            "thread_class_cycles": {
                name: dict(split)
                for name, split in self.thread_class_cycles.items()},
            "counters": {
                name: value for name, value in self.counters.items()
                if include_coalesce
                or not name.startswith("coalesce.")},
            "histograms": {name: histogram.as_dict()
                           for name, histogram
                           in sorted(self.histograms.items())},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Deterministic JSON rendering (sorted keys)."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunMetrics":
        data = dict(data)
        data["cores"] = [CoreMetrics.from_dict(core)
                         for core in data.get("cores", [])]
        data["histograms"] = {
            name: LatencyHistogram.from_dict(payload)
            for name, payload in data.get("histograms", {}).items()}
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "RunMetrics":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, items: Sequence["RunMetrics"]) -> "RunMetrics":
        """Deterministically merge metrics of repeated runs.

        Counters sum; durations sum; per-core entries merge by index
        (all items must describe the same machine shape).  Iteration
        follows the order of ``items``, so merging the same runs in
        the same order — regardless of which worker process produced
        them — yields a byte-identical result.
        """
        if not items:
            raise ValueError("cannot merge zero RunMetrics")
        first = items[0]
        configs = {m.config for m in items}
        schedulers = {m.scheduler for m in items}
        merged = cls(
            config=first.config if len(configs) == 1 else "mixed",
            scheduler=(first.scheduler
                       if len(schedulers) == 1 else "mixed"),
            duration=0.0,
            context_switches=0, migrations=0, preemptions=0,
            preempt_pulls=0, threads_spawned=0, threads_finished=0,
            runs=0)
        cores: Dict[int, CoreMetrics] = {}
        for item in items:
            merged.duration += item.duration
            merged.runs += item.runs
            merged.context_switches += item.context_switches
            merged.migrations += item.migrations
            merged.preemptions += item.preemptions
            merged.preempt_pulls += item.preempt_pulls
            merged.threads_spawned += item.threads_spawned
            merged.threads_finished += item.threads_finished
            for core in item.cores:
                into = cores.get(core.index)
                if into is None:
                    cores[core.index] = CoreMetrics(**core.as_dict())
                    continue
                if into.speed_class != core.speed_class:
                    # Sweep-wide merges cross configurations, where
                    # the same index is fast in one config and slow in
                    # another; class-level books stay exact because
                    # they were split before merging.
                    into.speed_class = "mixed"
                into.busy_seconds += core.busy_seconds
                into.idle_seconds += core.idle_seconds
                into.busy_cycles += core.busy_cycles
                into.dispatches += core.dispatches
                into.migrations_in += core.migrations_in
                into.preemptions += core.preemptions
                into.runqueue_samples += core.runqueue_samples
                into.runqueue_total += core.runqueue_total
                into.runqueue_max = max(into.runqueue_max,
                                        core.runqueue_max)
                for duty, seconds in core.time_at_speed.items():
                    into.time_at_speed[duty] = \
                        into.time_at_speed.get(duty, 0.0) + seconds
            for speed_class, seconds in item.class_busy_seconds.items():
                merged.class_busy_seconds[speed_class] = \
                    merged.class_busy_seconds.get(speed_class, 0.0) \
                    + seconds
            for speed_class, cycles in item.class_busy_cycles.items():
                merged.class_busy_cycles[speed_class] = \
                    merged.class_busy_cycles.get(speed_class, 0.0) \
                    + cycles
            for name, split in item.thread_class_cycles.items():
                into_split = merged.thread_class_cycles.setdefault(
                    name, {})
                for speed_class, cycles in split.items():
                    into_split[speed_class] = \
                        into_split.get(speed_class, 0.0) + cycles
            for name, value in item.counters.items():
                if ".max_" in name:
                    # High-water marks (CounterBag.set_max) combine by
                    # maximum: summing queue-depth peaks across runs
                    # would report a depth no run ever reached.
                    merged.counters[name] = max(
                        merged.counters.get(name, value), value)
                else:
                    merged.counters[name] = \
                        merged.counters.get(name, 0.0) + value
            for name, histogram in item.histograms.items():
                into_histogram = merged.histograms.get(name)
                if into_histogram is None:
                    merged.histograms[name] = \
                        LatencyHistogram.merge([histogram])
                else:
                    merged.histograms[name] = LatencyHistogram.merge(
                        [into_histogram, histogram])
        merged.cores = [cores[index] for index in sorted(cores)]
        return merged


class MetricsCollector:
    """Per-run counter state, owned by the kernel.

    The raw per-core counters live as plain attributes on the
    :class:`~repro.machine.core.Core` objects themselves — the kernel
    dispatch loop increments them millions of times per run and a
    single attribute access is the whole overhead budget (the same
    discipline as the ``tracer.active`` guard).  This object carries
    the run-level :class:`CounterBag` and knows how to fold everything
    — plus anything still in flight — into an immutable
    :class:`RunMetrics` without perturbing the simulation, so a
    snapshot may be taken mid-run.
    """

    __slots__ = ("machine", "counters")

    def __init__(self, machine) -> None:
        self.machine = machine
        self.counters = CounterBag()

    # ------------------------------------------------------------------
    def snapshot(self, kernel) -> RunMetrics:
        """Fold the live counters into a :class:`RunMetrics`.

        Coalesced macro slices are first caught up to ``now`` (booking
        exactly the boundaries a sliced run would already have booked
        — observationally this is not a perturbation), then in-flight
        compute slices are accounted as busy up to ``now``, so a
        snapshot taken at a measurement horizon — while daemon threads
        still run — still conserves cycles.
        """
        machine = self.machine
        kernel._macro_catchup_all()
        now = kernel.sim.now
        slices = kernel._slices

        class_of = {}
        cores = []
        for core in machine.cores:
            index = core.index
            class_of[index] = "fast" if machine.is_fast(core) else "slow"
            piece = slices.get(index)
            in_flight = (now - piece.start) if piece is not None else 0.0
            # Time-at-speed books: closed intervals plus the open one
            # at the current duty cycle, keyed by duty for JSON.
            time_at_speed: Dict[str, float] = {
                f"{duty:g}": seconds
                for duty, seconds in core.time_at_speed.items()}
            current = f"{core.duty_cycle:g}"
            time_at_speed[current] = time_at_speed.get(current, 0.0) \
                + (now - core.speed_since)
            cores.append(CoreMetrics(
                index=index,
                speed_class=class_of[index],
                rate_hz=core.rate,
                busy_seconds=core.busy_time + in_flight,
                idle_seconds=core.idle_seconds + (
                    0.0 if piece is not None
                    else now - core.idle_since),
                busy_cycles=core.busy_cycles + (
                    in_flight * piece.rate if piece is not None
                    else 0.0),
                dispatches=core.dispatches,
                migrations_in=core.migrations_in,
                preemptions=core.preemptions,
                runqueue_samples=core.dispatches,
                runqueue_total=core.rq_total,
                runqueue_max=core.rq_max,
                time_at_speed=time_at_speed,
            ))

        class_busy_seconds: Dict[str, float] = {}
        class_busy_cycles: Dict[str, float] = {}
        for core in cores:
            class_busy_seconds[core.speed_class] = \
                class_busy_seconds.get(core.speed_class, 0.0) \
                + core.busy_seconds
            class_busy_cycles[core.speed_class] = \
                class_busy_cycles.get(core.speed_class, 0.0) \
                + core.busy_cycles

        # Per-thread split, with in-flight slices folded in so thread
        # cycles sum to the per-core totals above.
        in_flight_cycles: Dict[int, Dict[int, float]] = {}
        for index, piece in slices.items():
            per_thread = in_flight_cycles.setdefault(
                id(piece.thread), {})
            per_thread[index] = (now - piece.start) * piece.rate
        thread_class_cycles: Dict[str, Dict[str, float]] = {}
        finished = 0
        for thread in kernel.threads:
            if thread.terminated:
                finished += 1
            split: Dict[str, float] = {}
            extra = in_flight_cycles.get(id(thread), {})
            for index in set(thread.core_cycles) | set(extra):
                cycles = thread.core_cycles.get(index, 0.0) \
                    + extra.get(index, 0.0)
                speed_class = class_of[index]
                split[speed_class] = split.get(speed_class, 0.0) \
                    + cycles
            if split:
                thread_class_cycles[thread.name] = split

        counters = self.counters.as_dict()
        if kernel._macros:
            # Live macro gauge, so the conservation identity
            # armed == completed + split + absorbed + fallback + live
            # holds for mid-run snapshots too.
            counters["coalesce.macros_live"] = \
                float(len(kernel._macros))

        # The latency-value total is accumulated per core; summing in
        # core order is deterministic and mode-independent.
        lat_total = 0.0
        for core in machine.cores:
            lat_total += core.lat_total
        # Each dispatch is one context switch; only the cores count them.
        dispatches = sum(core.dispatches for core in cores)

        return RunMetrics(
            config=machine.label,
            scheduler=kernel.scheduler.name,
            duration=now,
            context_switches=dispatches,
            migrations=sum(core.migrations_in for core in cores),
            preemptions=sum(core.preemptions for core in cores),
            preempt_pulls=kernel.preempt_pulls,
            threads_spawned=len(kernel.threads),
            threads_finished=finished,
            cores=cores,
            class_busy_seconds=class_busy_seconds,
            class_busy_cycles=class_busy_cycles,
            thread_class_cycles=thread_class_cycles,
            counters=counters,
            histograms={
                # Zero waits are not counted inline (the common
                # idle-dispatch fast path does no histogram work), so
                # zeros are the dispatches that put nothing in a
                # bucket.
                "sched_latency_seconds":
                    LatencyHistogram.from_bucket_array(
                        kernel._hb_latency,
                        dispatches - sum(kernel._hb_latency),
                        lat_total),
                # The slice-length sum is exactly the busy time the
                # retire path already books on the cores (in-flight
                # slices are in neither, so the books match).
                "slice_seconds":
                    LatencyHistogram.from_bucket_array(
                        kernel._hb_slice, kernel._slice_zeros,
                        sum(core.busy_time
                            for core in machine.cores)),
                "migration_gap_seconds":
                    LatencyHistogram.from_bucket_array(
                        kernel._hb_migration, kernel._mig_zeros,
                        kernel._mig_total),
            },
        )


def metrics_record(result: Any) -> Dict[str, Any]:
    """JSON-ready metrics of one ``RunResult``: the ``--metrics-out``
    record, and the base of the service's canonical run JSON."""
    record: Dict[str, Any] = {
        "workload": result.workload,
        "config": result.config,
        "seed": result.seed,
        "metrics": dict(result.metrics),
    }
    if result.run_metrics is not None:
        record["run_metrics"] = result.run_metrics.as_dict()
    return record
