"""Multi-run, multi-configuration experiment driver.

The paper's protocol: run each workload several times on each of the
nine machine configurations, then look at the spread (stability) and
the means (scalability).  :class:`Runner` executes that protocol for
any :class:`~repro.workloads.base.Workload`; :class:`ConfigSweep` holds
the results and answers the questions the figures ask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.classify import Classification, classify
from repro.analysis.stats import Summary, speedup_over, summarize
from repro.experiments.parallel import Backend, RunTask, make_backend
from repro.metrics import RunMetrics
from repro.machine.topology import STANDARD_CONFIG_LABELS
from repro.workloads.base import RunResult, SchedulerFactory, Workload


@dataclass
class ConfigSweep:
    """Results of repeated runs across machine configurations."""

    workload: str
    primary_metric: str
    higher_is_better: bool
    #: label -> list of RunResult, one per repetition.
    results: Dict[str, List[RunResult]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def configs(self) -> List[str]:
        return list(self.results)

    def samples(self, metric: Optional[str] = None) -> Dict[str, List[float]]:
        """Per-config values of a metric (default: the primary one)."""
        metric = metric or self.primary_metric
        return {label: [run.metric(metric) for run in runs]
                for label, runs in self.results.items()}

    def summary(self, label: str,
                metric: Optional[str] = None) -> Summary:
        metric = metric or self.primary_metric
        return summarize([run.metric(metric)
                          for run in self.results[label]])

    def summaries(self, metric: Optional[str] = None) -> Dict[str, Summary]:
        return {label: self.summary(label, metric)
                for label in self.results}

    def means(self, metric: Optional[str] = None) -> Dict[str, float]:
        return {label: summary.mean
                for label, summary in self.summaries(metric).items()}

    def speedups(self, baseline: str = "0f-4s/8",
                 metric: Optional[str] = None) -> Dict[str, float]:
        """Figure 10's view: mean speedup of each config over baseline."""
        means = self.means(metric)
        base = means[baseline]
        return {label: speedup_over(base, value, self.higher_is_better)
                for label, value in means.items()}

    def run_metrics(self, label: str) -> List[RunMetrics]:
        """Per-run simulation metrics for one configuration.

        Raises :class:`ValueError` if any run predates the metrics
        layer (e.g. results deserialized from an old cache).
        """
        out = []
        for run in self.results[label]:
            if run.run_metrics is None:
                raise ValueError(
                    f"run {run.seed} on {label} carries no RunMetrics")
            out.append(run.run_metrics)
        return out

    def merged_metrics(self, label: Optional[str] = None) -> RunMetrics:
        """Deterministic aggregate of per-run simulation metrics.

        With ``label``, merges that configuration's repetitions; without,
        merges every run in the sweep.  Merge order is the sweep's
        result order, which is the deterministic task order — so serial
        and process-pool executions produce identical aggregates.
        """
        labels = [label] if label is not None else list(self.results)
        items = [m for lab in labels for m in self.run_metrics(lab)]
        return RunMetrics.merge(items)

    def all_results(self) -> List[RunResult]:
        """Every run in the sweep, in deterministic task order."""
        return [run for runs in self.results.values() for run in runs]

    def classification(self) -> Classification:
        """This sweep's Table 1 row."""
        return classify(self.workload, self.samples(),
                        self.higher_is_better)


class Runner:
    """Executes the repeated-runs protocol.

    Parameters
    ----------
    configs:
        Machine configurations to sweep (default: the paper's nine).
    runs:
        Repetitions per configuration (the paper uses 2-13 depending
        on the experiment).
    base_seed:
        Seed of the first run; repetition *i* on any config uses
        ``base_seed + i``, mirroring "same setup, run again".
    scheduler_factory:
        Optional kernel scheduler override (e.g. the asymmetry-aware
        scheduler) applied to every run.
    backend:
        Execution backend from :mod:`repro.experiments.parallel`.
        Defaults to serial execution in this process.  Every task runs
        under the backend's ``options``.
    jobs:
        Shorthand for ``backend=make_backend(jobs)``: ``None``/``0``/
        ``1`` run serially, larger values fan runs out over that many
        worker processes.  Ignored when ``backend`` is given.

    Parallel and serial execution produce bit-identical sweeps: every
    run derives its randomness from its own ``(config, seed)`` task and
    results are reassembled in task order.
    """

    def __init__(self, configs: Sequence[str] = STANDARD_CONFIG_LABELS,
                 runs: int = 4, base_seed: int = 100,
                 scheduler_factory: Optional[SchedulerFactory] = None,
                 backend: Optional[Backend] = None,
                 jobs: Optional[int] = None) -> None:
        if runs < 1:
            raise ValueError("need at least one run per configuration")
        self.configs = list(configs)
        self.runs = runs
        self.base_seed = base_seed
        self.scheduler_factory = scheduler_factory
        self.backend = backend if backend is not None \
            else make_backend(jobs)

    def tasks(self, workload: Workload) -> List[RunTask]:
        """The sweep's independent run tasks, in deterministic order."""
        return [RunTask(workload, label, self.base_seed + i,
                        self.scheduler_factory, self.backend.options)
                for label in self.configs for i in range(self.runs)]

    def run(self, workload: Workload) -> ConfigSweep:
        """Run the sweep for one workload."""
        sweep = ConfigSweep(workload=workload.name,
                            primary_metric=workload.primary_metric,
                            higher_is_better=workload.higher_is_better)
        results = iter(self.backend.execute(self.tasks(workload)))
        for label in self.configs:
            sweep.results[label] = [next(results)
                                    for _ in range(self.runs)]
        return sweep
