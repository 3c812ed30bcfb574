"""Auto-generated per-workload performance reports (markdown + JSON).

The paper's contribution is *measured characterization* — figures
contrasting asymmetric and symmetric configurations — and this module
assembles that story from data the system already produces, instead
of leaving readers to cross-reference ``fig*.txt`` dumps by hand:

* **Throughput** — per-configuration summary statistics of the
  primary metric, for the stock and the asymmetry-aware scheduler.
* **Asym-vs-stock deltas** — per-configuration speedups
  (:func:`repro.analysis.stats.speedup_over`; > 1 always means the
  asymmetry-aware scheduler is faster).
* **Theoretical vs. measured scaling** — a Gunther USL fit
  (:mod:`repro.analysis.usl`) over the sweep's means, tabulated
  against the measurements with absolute and relative residuals.
* **Variability** — per-configuration coefficient of variation across
  the seed panel plus latency-histogram percentiles from the merged
  :class:`~repro.metrics.RunMetrics`, the run-to-run
  characterization arXiv:2311.05267 (PAPERS.md) treats as a
  first-class result.
* **Service telemetry** — the scenario service's run ledger
  (:mod:`repro.service.ledger`) summarized into request/outcome
  censuses and queue-wait/execute distributions.
* **Golden fixtures** — which byte-exact fixtures pin this workload.

Determinism is a contract: :func:`build_report` and
:func:`render_markdown` are pure functions of their inputs (no
timestamps, hosts or absolute paths in the output), so two
generations from the same sweeps and ledger file are
byte-identical — CI's ``identity`` job generates twice and
``cmp``-s, and ``tests/golden/`` pins a small fixture report.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import Summary, speedup_over
from repro.analysis.usl import fit_usl, scaling_axis
from repro.histogram import LatencyHistogram
from repro.metrics import HISTOGRAM_NAMES

if TYPE_CHECKING:
    from repro.experiments.parallel import Backend

#: Bump when the report payload schema changes; the schema checker
#: (tools/check_schema.py) tracks this.
REPORT_FORMAT = 1

#: Scheduler keys a report always carries, in rendering order.
SCHEDULERS = ("stock", "asym")


# ----------------------------------------------------------------------
# Section builders (pure functions of sweeps/records)
# ----------------------------------------------------------------------
def _summary_payload(summary: Summary) -> Dict[str, Any]:
    return {
        "runs": summary.n,
        "mean": summary.mean,
        "std": summary.std,
        "min": summary.minimum,
        "max": summary.maximum,
        "cov": summary.cov,
        "spread": summary.spread,
    }


def _histogram_payload(histogram: LatencyHistogram) -> Dict[str, Any]:
    return {
        "count": histogram.count,
        "mean_seconds": histogram.mean,
        "p50_seconds": histogram.quantile(0.5),
        "p95_seconds": histogram.quantile(0.95),
        "p99_seconds": histogram.quantile(0.99),
    }


def usl_section(sweep: ConfigSweep) -> Dict[str, Any]:
    """USL fit + theoretical-vs-measured table for one sweep.

    A sweep whose configurations do not span three distinct
    concurrency coordinates cannot carry the three-parameter model;
    the section then reports the reason instead of a table.
    """
    means = sweep.means()
    try:
        fit = fit_usl(means, sweep.higher_is_better)
    except ValueError as exc:
        return {"error": str(exc)}
    table: List[Dict[str, Any]] = []
    for label in sweep.configs:
        x, _ = scaling_axis(label, sweep.higher_is_better)
        measured = means[label]
        predicted = fit.predict_config(label)
        residual = measured - predicted
        table.append({
            "config": label,
            "x": x,
            "measured": measured,
            "predicted": predicted,
            "residual": residual,
            "relative_residual": (residual / measured
                                  if measured else 0.0),
        })
    return {
        "fit": {
            "gamma": fit.gamma,
            "sigma": fit.sigma,
            "kappa": fit.kappa,
            "r_squared": fit.r_squared,
            "physical": fit.physical,
        },
        "table": table,
    }


def policy_section(policy_sweeps: "Dict[str, ConfigSweep]",
                   ) -> Dict[str, Any]:
    """Per-`LoopSchedule` scaling: config means + a USL fit each.

    The input maps policy name to one sweep per loop schedule (fig13's
    shape); the section carries each policy's per-configuration means
    and its own theoretical-vs-measured USL fit, so the report shows
    which scheduling policy the fitted σ/κ contention terms blame for
    the asymmetric-machine stragglers.
    """
    return {
        policy: {
            "means": sweep.means(),
            "usl": usl_section(sweep),
        }
        for policy, sweep in policy_sweeps.items()
    }


def variability_section(stock: ConfigSweep,
                        asym: ConfigSweep) -> Dict[str, Any]:
    """Seed-panel variability: per-config CoV + histogram percentiles."""
    per_config: Dict[str, Any] = {}
    for label in stock.configs:
        per_config[label] = {
            "stock": _summary_payload(stock.summary(label)),
            "asym": _summary_payload(asym.summary(label)),
        }
    histograms: Dict[str, Any] = {}
    for name, sweep in (("stock", stock), ("asym", asym)):
        merged = sweep.merged_metrics()
        histograms[name] = {
            hist_name: _histogram_payload(
                merged.histograms.get(hist_name, LatencyHistogram()))
            for hist_name in HISTOGRAM_NAMES
        }
    return {
        "reference": "arXiv:2311.05267",
        "per_config": per_config,
        "histograms": histograms,
    }


def golden_metadata(golden_dir: str,
                    workload: str) -> List[Dict[str, Any]]:
    """Metadata of the golden fixtures pinning ``workload``."""
    fixtures: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(golden_dir))
    except FileNotFoundError:
        return fixtures
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(golden_dir, name), "r",
                      encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict) or "kind" not in payload:
            continue
        if payload.get("workload") != workload:
            continue
        fixtures.append({
            "name": name[:-len(".json")],
            "kind": payload["kind"],
            "config": payload.get("config"),
            "seed": payload.get("seed"),
        })
    return fixtures


# ----------------------------------------------------------------------
# Report assembly
# ----------------------------------------------------------------------
def build_report(stock: ConfigSweep, asym: ConfigSweep, *,
                 ledger_records: Optional[Sequence[Dict[str, Any]]]
                 = None,
                 golden: Optional[List[Dict[str, Any]]] = None,
                 policies: Optional["Dict[str, ConfigSweep]"] = None,
                 ) -> Dict[str, Any]:
    """The JSON report payload — a pure function of its inputs."""
    from repro.service.ledger import summarize_ledger

    if stock.configs != asym.configs:
        raise ValueError(
            f"stock and asym sweeps cover different configurations: "
            f"{stock.configs} vs {asym.configs}")
    seeds = sorted({run.seed for runs in stock.results.values()
                    for run in runs})
    throughput = {
        "stock": {label: _summary_payload(stock.summary(label))
                  for label in stock.configs},
        "asym": {label: _summary_payload(asym.summary(label))
                 for label in asym.configs},
    }
    stock_means = stock.means()
    asym_means = asym.means()
    deltas = {
        label: {
            "stock": stock_means[label],
            "asym": asym_means[label],
            "speedup": speedup_over(stock_means[label],
                                    asym_means[label],
                                    stock.higher_is_better),
        }
        for label in stock.configs
    }
    report: Dict[str, Any] = {
        "format": REPORT_FORMAT,
        "workload": stock.workload,
        "primary_metric": stock.primary_metric,
        "higher_is_better": stock.higher_is_better,
        "configs": stock.configs,
        "seed_panel": {"seeds": seeds,
                       "runs_per_config": len(seeds)},
        "throughput": throughput,
        "deltas": deltas,
        "usl": {"stock": usl_section(stock),
                "asym": usl_section(asym)},
        "variability": variability_section(stock, asym),
    }
    if policies is not None:
        report["omp_policies"] = policy_section(policies)
    if ledger_records is not None:
        report["service"] = summarize_ledger(ledger_records)
    if golden is not None:
        report["golden"] = golden
    return report


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------
def _md_table(headers: Sequence[str],
              rows: Sequence[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _seconds(value: float) -> str:
    from repro.experiments.report import format_seconds
    return format_seconds(value)


def render_markdown(report: Dict[str, Any]) -> str:
    """Reader-facing markdown; byte-deterministic for a payload."""
    metric = report["primary_metric"]
    arrow = "higher is better" if report["higher_is_better"] \
        else "lower is better"
    seeds = report["seed_panel"]["seeds"]
    lines: List[str] = [
        f"# Performance report — {report['workload']}",
        "",
        f"Primary metric: `{metric}` ({arrow}). Seed panel: "
        f"{len(seeds)} run(s) per configuration, seeds "
        f"{', '.join(str(seed) for seed in seeds)}.",
        "",
        "## Throughput",
        "",
    ]
    rows = []
    for label in report["configs"]:
        cells = [f"`{label}`"]
        for scheduler in SCHEDULERS:
            summary = report["throughput"][scheduler][label]
            cells.append(f"{summary['mean']:.2f}")
            cells.append(f"{summary['min']:.2f}..{summary['max']:.2f}")
        rows.append(cells)
    lines += _md_table(
        ["config", "stock mean", "stock min..max",
         "asym mean", "asym min..max"], rows)

    lines += ["", "## Asymmetric vs. stock scheduler", "",
              "Speedup > 1 means the asymmetry-aware scheduler is "
              "faster on that configuration.", ""]
    rows = [[f"`{label}`",
             f"{delta['stock']:.2f}",
             f"{delta['asym']:.2f}",
             f"{delta['speedup']:.3f}x"]
            for label, delta in report["deltas"].items()]
    lines += _md_table(["config", f"stock {metric}",
                        f"asym {metric}", "speedup"], rows)

    lines += ["", "## Theoretical vs. measured scaling (USL)", ""]
    for scheduler in SCHEDULERS:
        section = report["usl"][scheduler]
        lines.append(f"### {scheduler}")
        lines.append("")
        if "error" in section:
            lines += [f"No fit: {section['error']}", ""]
            continue
        fit = section["fit"]
        lines += [
            f"gamma={fit['gamma']:.4g}, sigma={fit['sigma']:.4g}, "
            f"kappa={fit['kappa']:.4g}, R²={fit['r_squared']:.4f}"
            + ("" if fit["physical"]
               else " (outside Gunther's physical region)"),
            "",
        ]
        rows = [[f"`{row['config']}`", f"{row['x']:g}",
                 f"{row['measured']:.2f}", f"{row['predicted']:.2f}",
                 f"{row['residual']:+.3g}",
                 f"{row['relative_residual']:+.2%}"]
                for row in section["table"]]
        lines += _md_table(["config", "x", "measured", "predicted",
                            "residual", "relative"], rows)
        lines.append("")

    omp_policies = report.get("omp_policies")
    if omp_policies is not None:
        lines += ["## Loop-schedule comparison", "",
                  "Per-policy scaling of the OpenMP runtime "
                  "(DESIGN.md §14): mean primary metric per "
                  "configuration, one column per `LoopSchedule`, "
                  "then each policy's USL fit.", ""]
        policy_labels = list(next(iter(
            omp_policies.values()))["means"])
        rows = [[f"`{label}`"]
                + [f"{entry['means'][label]:.2f}"
                   for entry in omp_policies.values()]
                for label in policy_labels]
        lines += _md_table(["config"] + list(omp_policies), rows)
        lines.append("")
        fit_rows = []
        for policy, entry in omp_policies.items():
            usl = entry["usl"]
            if "error" in usl:
                fit_rows.append([policy, "-", "-", "-",
                                 f"no fit: {usl['error']}"])
                continue
            fit = usl["fit"]
            fit_rows.append([
                policy, f"{fit['sigma']:.4g}", f"{fit['kappa']:.4g}",
                f"{fit['r_squared']:.4f}",
                "yes" if fit["physical"] else "no"])
        lines += _md_table(["policy", "sigma", "kappa", "R²",
                            "physical"], fit_rows)
        lines.append("")

    lines += ["## Run-to-run variability", "",
              "Coefficient of variation across the seed panel "
              "(stability per arXiv:2311.05267), then latency "
              "percentiles from the merged run histograms.", ""]
    variability = report["variability"]
    rows = [[f"`{label}`",
             f"{entry['stock']['cov']:.4f}",
             f"{entry['stock']['spread']:.2f}",
             f"{entry['asym']['cov']:.4f}",
             f"{entry['asym']['spread']:.2f}"]
            for label, entry in variability["per_config"].items()]
    lines += _md_table(["config", "stock CoV", "stock spread",
                        "asym CoV", "asym spread"], rows)
    lines.append("")
    rows = []
    for scheduler in SCHEDULERS:
        for name, entry in variability["histograms"][scheduler].items():
            rows.append([
                scheduler, f"`{name}`", str(entry["count"]),
                _seconds(entry["mean_seconds"]),
                _seconds(entry["p50_seconds"]),
                _seconds(entry["p95_seconds"]),
                _seconds(entry["p99_seconds"]),
            ])
    lines += _md_table(["scheduler", "histogram", "samples", "mean",
                        "p50", "p95", "p99"], rows)

    service = report.get("service")
    if service is not None:
        lines += ["", "## Service request telemetry", "",
                  f"{service['records']} ledger record(s): "
                  f"{service['tasks']} task(s), "
                  f"{service['cache_hits']} cache hit(s), "
                  f"{service['coalesced']} coalesced, "
                  f"{service['fresh']} simulated fresh.", ""]
        rows = [[f"`{kind}`", str(count)]
                for kind, count in service["by_request"].items()]
        lines += _md_table(["request", "count"], rows)
        lines.append("")
        rows = [[f"`{outcome}`", str(count)]
                for outcome, count in service["by_outcome"].items()]
        lines += _md_table(["outcome", "count"], rows)
        lines.append("")
        rows = [[f"`{name}`", str(entry["count"]),
                 _seconds(entry["mean_seconds"]),
                 _seconds(entry["p50_seconds"]),
                 _seconds(entry["p95_seconds"]),
                 _seconds(entry["p99_seconds"])]
                for name, entry in service["latency"].items()]
        lines += _md_table(["latency", "batches", "mean", "p50",
                            "p95", "p99"], rows)

    golden = report.get("golden")
    if golden is not None:
        lines += ["", "## Golden fixtures", ""]
        if golden:
            rows = [[f"`{entry['name']}`", entry["kind"],
                     f"`{entry['config']}`", str(entry["seed"])]
                    for entry in golden]
            lines += _md_table(["fixture", "kind", "config", "seed"],
                               rows)
        else:
            lines.append("No byte-exact fixture pins this workload.")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Input loading and file generation
# ----------------------------------------------------------------------
def sweep_from_payloads(workload_name: str,
                        payloads: Sequence[Dict[str, Any]],
                        ) -> ConfigSweep:
    """Rebuild a :class:`ConfigSweep` from ``submit --json-out``
    result payloads (which arrive in deterministic task order)."""
    from repro.experiments.runner import ConfigSweep
    from repro.service.cache import result_from_payload
    from repro.service.registry import WORKLOADS

    try:
        workload_cls = WORKLOADS[workload_name][0]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload_name!r}; expected one of "
            f"{sorted(WORKLOADS)}") from None
    sweep = ConfigSweep(workload=workload_cls.name,
                        primary_metric=workload_cls.primary_metric,
                        higher_is_better=workload_cls.higher_is_better)
    for payload in payloads:
        result = result_from_payload(payload)
        sweep.results.setdefault(result.config, []).append(result)
    if not sweep.results:
        raise ValueError("no result payloads to build a sweep from")
    return sweep


def load_results_file(path: str) -> List[Dict[str, Any]]:
    """The payload list a ``submit --json-out`` file carries."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    results = data.get("results") if isinstance(data, dict) else None
    if not isinstance(results, list):
        raise ValueError(f"{path}: not a submit --json-out file "
                         "(no 'results' list)")
    return results


def canonical_report_json(report: Dict[str, Any]) -> str:
    """The byte-exact JSON form (same discipline as the goldens)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def generate_report_files(workload_name: str, out_dir: str, *,
                          configs: Optional[Sequence[str]] = None,
                          runs: int = 2, base_seed: int = 100,
                          backend: Optional[Backend] = None,
                          params: Optional[Dict[str, Any]] = None,
                          stock_results: Optional[str] = None,
                          asym_results: Optional[str] = None,
                          ledger_path: Optional[str] = None,
                          golden_dir: Optional[str] = None,
                          ) -> Tuple[Path, Path]:
    """Build one workload's report and write ``.md`` + ``.json``.

    Sweeps come from ``submit --json-out`` payload files when both
    ``stock_results`` and ``asym_results`` are given (the
    deterministic offline mode CI uses), otherwise from fresh local
    simulation via :class:`Runner` on ``backend`` (default: serial).
    """
    from repro.experiments.runner import Runner
    from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
    from repro.service.ledger import read_ledger
    from repro.service.registry import build_workload

    if (stock_results is None) != (asym_results is None):
        raise ValueError("pass both --stock-results and "
                         "--asym-results, or neither")
    policies: Optional[Dict[str, Any]] = None
    if stock_results is not None and asym_results is not None:
        stock = sweep_from_payloads(
            workload_name, load_results_file(stock_results))
        asym = sweep_from_payloads(
            workload_name, load_results_file(asym_results))
    else:
        workload = build_workload(workload_name, params or {})
        kwargs: Dict[str, Any] = {"runs": runs,
                                  "base_seed": base_seed,
                                  "backend": backend}
        if configs:
            kwargs["configs"] = list(configs)
        stock = Runner(**kwargs).run(workload)
        asym = Runner(scheduler_factory=AsymmetryAwareScheduler,
                      **kwargs).run(workload)
        if workload_name == "specomp":
            # One extra sweep per loop schedule (stock scheduler):
            # the report's per-policy scaling table.
            from repro.workloads.specomp import OMP_SCHEDULES
            policy_params = dict(params or {})
            policies = {}
            for policy in OMP_SCHEDULES:
                policy_params["omp_schedule"] = policy
                policies[policy] = Runner(**kwargs).run(
                    build_workload(workload_name, policy_params))

    ledger_records = None
    if ledger_path is not None and os.path.exists(ledger_path):
        ledger_records = read_ledger(ledger_path)
    golden = (golden_metadata(golden_dir, stock.workload)
              if golden_dir is not None else None)
    report = build_report(
        stock, asym,
        ledger_records=ledger_records,
        golden=golden,
        policies=policies)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"report_{workload_name}.json"
    md_path = out / f"report_{workload_name}.md"
    json_path.write_text(canonical_report_json(report),
                         encoding="utf-8")
    md_path.write_text(render_markdown(report), encoding="utf-8")
    return md_path, json_path
