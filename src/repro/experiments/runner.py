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
from repro.analysis.usl import (
    UslFit,
    compute_power,
    fit_usl,
    scaling_axis,
)
from repro.errors import PredictionGateError
from repro.experiments.parallel import Backend, RunTask, make_backend
from repro.metrics import RunMetrics
from repro.machine.topology import STANDARD_CONFIG_LABELS
from repro.sim import trace_export as _trace_export
from repro.sim.trace_export import TraceData
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

    def traces(self, label: str) -> List["TraceData"]:
        """Per-run timelines for one configuration.

        Raises :class:`ValueError` if any run was executed without
        tracing enabled (no trace categories in its ``RunOptions``).
        """
        out = []
        for run in self.results[label]:
            if run.trace is None:
                raise ValueError(
                    f"run {run.seed} on {label} carries no trace "
                    "(enable tracing before running the sweep)")
            out.append(run.trace)
        return out

    def all_results(self) -> List[RunResult]:
        """Every run in the sweep, in deterministic task order."""
        return [run for runs in self.results.values() for run in runs]

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event JSON object covering every traced run.

        Each run becomes one trace process; run order is the sweep's
        deterministic task order, so serial and process-pool sweeps
        export byte-identical traces.
        """
        return _trace_export.chrome_trace(self.all_results())

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

    # ------------------------------------------------------------------
    # Analytic sweeps (DESIGN.md §10)
    # ------------------------------------------------------------------
    def _sweep_subset(self, workload: Workload,
                      labels: Sequence[str]) -> ConfigSweep:
        """Run the full repeated-runs protocol on a subset of configs.

        Seeds match the full sweep's per-config seeds exactly, so a
        shared :class:`~repro.service.cache.ResultCache` serves
        anchor runs to a later full sweep (and vice versa) for free.
        """
        sub = Runner(configs=labels, runs=self.runs,
                     base_seed=self.base_seed,
                     scheduler_factory=self.scheduler_factory,
                     backend=self.backend)
        return sub.run(workload)

    def _default_anchors(self, higher_is_better: bool) -> List[str]:
        """Three configs spanning the metric's concurrency axis.

        One label per distinct concurrency coordinate (ties broken
        toward the lowest compute power, the cheapest simulation),
        then the coordinate range's minimum, median and maximum — so
        the three-parameter USL fit always sees three distinct
        abscissae and interpolates rather than extrapolates.
        """
        by_x: Dict[float, str] = {}
        for label in self.configs:
            x, _ = scaling_axis(label, higher_is_better)
            kept = by_x.get(x)
            if kept is None or compute_power(label) < compute_power(kept):
                by_x[x] = label
        ordered = sorted(by_x)
        if len(ordered) < 3:
            raise ValueError(
                "cannot pick USL anchors: fewer than three distinct "
                f"concurrency coordinates across {self.configs}")
        return [by_x[ordered[0]], by_x[ordered[len(ordered) // 2]],
                by_x[ordered[-1]]]

    def predict_sweep(self, workload: Workload,
                      anchors: Optional[Sequence[str]] = None,
                      spot_checks: int = 1,
                      tolerance: float = 0.10) -> "SweepPrediction":
        """Analytic sweep: simulate anchors, interpolate the rest.

        Simulates only the ``anchors`` (default: three configurations
        spanning the metric's concurrency axis — one third of the
        paper's nine; see :func:`repro.analysis.usl.scaling_axis`),
        fits Gunther's USL model (:mod:`repro.analysis.usl`) to the
        anchor means and predicts the primary metric of every other
        configuration from the fitted curve.

        ``spot_checks`` predicted configurations (spread evenly over
        the predicted range) are then *actually simulated* as a
        validation gate: if any spot-check's relative error exceeds
        ``tolerance``, :class:`~repro.errors.PredictionGateError` is
        raised with the full :class:`SweepPrediction` attached.  Pass
        ``spot_checks=0`` to skip the gate (pure interpolation).
        """
        if tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if anchors is None:
            anchors = self._default_anchors(workload.higher_is_better)
        anchors = list(dict.fromkeys(anchors))
        unknown = [label for label in anchors
                   if label not in self.configs]
        if unknown:
            raise ValueError(f"anchor configs not in sweep: {unknown}")
        measured = self._sweep_subset(workload, anchors).means()
        fit = fit_usl(measured, workload.higher_is_better)
        anchor_set = set(anchors)
        predicted = {label: fit.predict_config(label)
                     for label in self.configs
                     if label not in anchor_set}
        prediction = SweepPrediction(
            workload=workload.name,
            primary_metric=workload.primary_metric,
            higher_is_better=workload.higher_is_better,
            configs=list(self.configs), anchors=list(anchors),
            fit=fit, measured=measured, predicted=predicted,
            spot_checks=[], tolerance=tolerance)
        if spot_checks and predicted:
            candidates = sorted(predicted, key=compute_power)
            count = min(spot_checks, len(candidates))
            indices = sorted({(i + 1) * len(candidates) // (count + 1)
                              for i in range(count)})
            picks = [candidates[min(i, len(candidates) - 1)]
                     for i in indices]
            check_means = self._sweep_subset(workload, picks).means()
            prediction.spot_checks = [
                SpotCheck(config=label, predicted=predicted[label],
                          simulated=check_means[label])
                for label in picks]
            failing = [check for check in prediction.spot_checks
                       if check.relative_error > tolerance]
            if failing:
                detail = ", ".join(
                    f"{check.config}: predicted "
                    f"{check.predicted:.4g} vs simulated "
                    f"{check.simulated:.4g} "
                    f"({check.relative_error:.1%} error)"
                    for check in failing)
                raise PredictionGateError(
                    f"USL prediction gate failed for "
                    f"{workload.name} (tolerance {tolerance:.1%}): "
                    f"{detail}", prediction=prediction)
        return prediction


@dataclass(frozen=True)
class SpotCheck:
    """One validation point of an analytic sweep."""

    config: str
    predicted: float
    simulated: float

    @property
    def relative_error(self) -> float:
        return abs(self.predicted - self.simulated) \
            / abs(self.simulated)


@dataclass
class SweepPrediction:
    """An analytic sweep: measured anchors plus USL interpolation.

    The shape mirrors :class:`ConfigSweep`'s reporting surface where
    it makes sense (:meth:`means`, :meth:`speedups`) so figures can
    consume either, but carries model state instead of per-run
    results: the fitted :class:`~repro.analysis.usl.UslFit`, which
    configurations were actually simulated, and the spot-check gate's
    evidence.
    """

    workload: str
    primary_metric: str
    higher_is_better: bool
    #: Every configuration of the sweep, in the runner's order.
    configs: List[str]
    #: Configurations simulated to fit the model.
    anchors: List[str]
    fit: UslFit
    #: Anchor label -> simulated mean of the primary metric.
    measured: Dict[str, float]
    #: Non-anchor label -> model-predicted primary metric.
    predicted: Dict[str, float]
    spot_checks: List[SpotCheck] = field(default_factory=list)
    tolerance: float = 0.10

    @property
    def simulated_configs(self) -> List[str]:
        """Everything that actually ran: anchors then spot checks."""
        return self.anchors + [check.config
                               for check in self.spot_checks]

    @property
    def max_spot_error(self) -> float:
        """Worst relative error over the spot checks (0 when none)."""
        if not self.spot_checks:
            return 0.0
        return max(check.relative_error for check in self.spot_checks)

    def means(self) -> Dict[str, float]:
        """The full curve: measured anchors, predicted elsewhere.

        Spot-checked configurations keep their *predicted* value —
        the spot simulations are gate evidence, not curve points, so
        the curve is exactly what anchor-only interpolation produces.
        """
        return {label: self.measured.get(label,
                                         self.predicted.get(label))
                for label in self.configs}

    def speedups(self, baseline: str = "0f-4s/8") -> Dict[str, float]:
        """Figure 10's view of the predicted curve."""
        means = self.means()
        base = means[baseline]
        return {label: speedup_over(base, value, self.higher_is_better)
                for label, value in means.items()}
