"""Figure 1 — SPECjbb performance predictability.

(a) Throughput vs. warehouse count on the 2f-2s/8 asymmetric machine
    for two virtual machines: BEA JRockit with the parallel collector
    and Sun HotSpot with the generational concurrent collector,
    multiple runs each.  HotSpot's absolute variance is higher;
    JRockit shows minor instability.
(b) JRockit with the generational concurrent collector: stable on
    4f-0s, significantly unstable on 2f-2s/8, with instability growing
    with concurrency.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.parallel import Backend, RunTask, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_series
from repro.runtime.jvm import GCKind
from repro.workloads.base import RunOptions
from repro.workloads.specjbb import SpecJBB

#: The four (series label, vm, gc, config) curves across both panels.
_SERIES = [
    ("a", "jrockit-parallel@2f-2s/8",
     "jrockit", GCKind.PARALLEL, "2f-2s/8"),
    ("a", "hotspot-concurrent@2f-2s/8",
     "hotspot", GCKind.CONCURRENT, "2f-2s/8"),
    ("b", "jrockit-concurrent@4f-0s",
     "jrockit", GCKind.CONCURRENT, "4f-0s"),
    ("b", "jrockit-concurrent@2f-2s/8",
     "jrockit", GCKind.CONCURRENT, "2f-2s/8"),
]


def _curve_tasks(vm: str, gc: GCKind, config: str, runs: int,
                 profile: Profile, base_seed: int,
                 options: RunOptions) -> List[RunTask]:
    """Tasks for one curve, run-major then warehouse-minor."""
    return [RunTask(SpecJBB(warehouses=warehouses, vm=vm, gc=gc,
                            measurement_seconds=(
                                profile.specjbb_measurement)),
                    config, base_seed + run, options=options)
            for run in range(runs)
            for warehouses in profile.warehouses]


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    """Collect both panels; returns {panel: {series: curves}}."""
    runs = max(2, profile.runs)
    backend = backend if backend is not None else make_backend(jobs)
    # One flat task list across all four series, so a parallel backend
    # sees the whole figure's work at once.
    tasks: List[RunTask] = []
    for _, _, vm, gc, config in _SERIES:
        tasks.extend(_curve_tasks(vm, gc, config, runs, profile,
                                  base_seed, backend.options))
    results = iter(backend.execute(tasks))
    points = len(profile.warehouses)
    data: Dict = {"warehouses": list(profile.warehouses),
                  "a": {}, "b": {}}
    for panel, name, _, _, _ in _SERIES:
        data[panel][name] = [
            [next(results).metric("throughput") for _ in range(points)]
            for _ in range(runs)]
    return data


def render(data: Dict) -> str:
    """Text rendering: per series, the min..max envelope across runs."""
    blocks = []
    for panel in ("a", "b"):
        series = {}
        for name, curves in data[panel].items():
            lows = [min(c[i] for c in curves)
                    for i in range(len(data["warehouses"]))]
            highs = [max(c[i] for c in curves)
                     for i in range(len(data["warehouses"]))]
            series[f"{name} min"] = lows
            series[f"{name} max"] = highs
        blocks.append(format_series(
            f"Figure 1({panel}) SPECjbb throughput (ops/s) envelopes",
            data["warehouses"], series, x_name="warehouses"))
    return "\n\n".join(blocks)
