"""Workload interface shared by all eight benchmark models.

A workload knows how to run itself once on a named machine
configuration with a given seed, returning a :class:`RunResult` of
metrics.  The experiment harness (:mod:`repro.experiments`) layers
repeated runs, multiple configurations and statistics on top.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional

from repro._system import System
from repro.faults import FaultSchedule
from repro.kernel.kernel import coalescing_enabled
from repro.kernel.scheduler import Scheduler
from repro.metrics import RunMetrics
from repro.sim.trace_export import TraceData

#: Builds a fresh scheduler per run (schedulers are stateful).
SchedulerFactory = Callable[[], Scheduler]


@dataclass(frozen=True)
class RunOptions:
    """The run context: what a run depends on besides its workload,
    config, seed and scheduler.

    Every experiment task carries one (into worker processes too) and
    the cache key folds it in, so a run's result depends on its task
    alone.  The CLI builds one per invocation from its flags.

    ``faults`` is the run's fault schedule (``--faults``, or the storm
    an exhibit puts on its stormy tasks); ``trace`` the trace
    categories recorded, whose timeline then rides on the result
    (``--trace-out``); ``coalesce`` the kernel's quantum-coalescing
    mode (``--no-coalesce``), by default
    :func:`~repro.kernel.kernel.coalescing_enabled`.
    """

    faults: Optional[FaultSchedule] = None
    trace: Optional[FrozenSet[str]] = None
    coalesce: bool = field(default_factory=coalescing_enabled)


@dataclass
class RunResult:
    """Metrics from a single workload run on one configuration.

    ``metrics`` holds the workload-level numbers the figures plot;
    ``run_metrics`` is the simulation's always-on observability
    snapshot (per-core accounting, migrations, workload counters — see
    :mod:`repro.metrics`), attached by :meth:`Workload.run_once`.
    ``trace`` is the run's exportable timeline, attached only when the
    run's :class:`RunOptions` enable trace categories; see
    :mod:`repro.sim.trace_export`.
    """

    workload: str
    config: str
    seed: int
    metrics: Dict[str, float] = field(default_factory=dict)
    run_metrics: Optional[RunMetrics] = None
    trace: Optional[TraceData] = None

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"run of {self.workload!r} has no metric {name!r}; "
                f"available: {sorted(self.metrics)}") from None


class Workload(abc.ABC):
    """A benchmark that can be run on any machine configuration."""

    #: Workload name used in reports (e.g. "SPECjbb").
    name: str = "workload"
    #: The headline metric of the paper's figures for this workload.
    primary_metric: str = "throughput"
    #: True when larger primary-metric values are better (throughput);
    #: False for runtimes.
    higher_is_better: bool = True

    def run_once(self, config: str, seed: int = 0,
                 scheduler_factory: Optional[SchedulerFactory] = None,
                 options: Optional[RunOptions] = None) -> RunResult:
        """Run the workload once under ``options``; return its result.

        The one run skeleton: builds a fresh platform with the run's
        ``options`` (default: ``RunOptions()``), installs their fault
        schedule before any thread is spawned (so fault events
        interleave deterministically with the run), lets
        :meth:`simulate` drive it, and attaches the run's timeline
        (when trace categories are recorded) and its
        :class:`~repro.metrics.RunMetrics` snapshot.
        """
        if options is None:
            options = RunOptions()
        scheduler = scheduler_factory() if scheduler_factory else None
        system = System.build(config, seed=seed, scheduler=scheduler,
                              coalesce=options.coalesce,
                              trace=options.trace)
        if options.faults is not None:
            options.faults.install(system)
        metrics = self.simulate(system)
        trace = None
        if system.sim.tracer.active:
            trace = TraceData.from_system(system)
        return RunResult(self.name, config, seed, dict(metrics),
                         run_metrics=system.run_metrics(), trace=trace)

    @abc.abstractmethod
    def simulate(self, system: System) -> Dict[str, float]:
        """Drive one run on the freshly built ``system``; return the
        workload-level metrics."""
