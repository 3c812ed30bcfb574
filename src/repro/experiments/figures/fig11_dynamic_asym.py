"""Figure 11 — SPECjbb predictability under dynamic asymmetry.

The paper's Figure 1 shows throughput becoming unpredictable when the
machine is *statically* asymmetric.  This exhibit extends the
experiment to the dynamic asymmetry real machines exhibit: every run
is hit by a seeded random *throttle storm* (transient duty-cycle
reprogramming of random cores — thermal/power management events),
generated by :meth:`repro.faults.FaultSchedule.throttle_storm`.

Three series on the 2f-2s/8 machine, repeated-runs envelope each:

* ``stock`` — the speed-agnostic scheduler, no faults (Figure 1
  baseline);
* ``stock+storm`` — the same scheduler under the storm: variance
  widens further, because a throttled core silently strands whatever
  thread the speed-blind policy parked there;
* ``asym+storm`` — the paper's asymmetry-aware scheduler under the
  *same* storms: pull migration keeps the fastest cores busy even as
  "fastest" changes underneath it, recovering most of the
  predictability.

Each repetition uses a different storm (storm seed = run seed), which
models "same machine, different thermal weather"; the storm itself is
fully deterministic per seed.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.experiments.parallel import Backend, RunTask, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_series
from repro.faults import FaultSchedule
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.runtime.jvm import GCKind
from repro.workloads.specjbb import SpecJBB

#: Machine under test: the paper's flagship asymmetric configuration.
CONFIG = "2f-2s/8"

#: (series label, scheduler factory or None for stock, storm?).
_SERIES = [
    ("stock", None, False),
    ("stock+storm", None, True),
    ("asym+storm", AsymmetryAwareScheduler, True),
]


def _workload(profile: Profile) -> SpecJBB:
    return SpecJBB(vm="jrockit", gc=GCKind.CONCURRENT,
                   measurement_seconds=profile.specjbb_measurement)


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    """Collect the three series; returns {series: [throughput/run]}."""
    runs = max(2, profile.runs)
    backend = backend if backend is not None else make_backend(jobs)
    horizon = (profile.specjbb_measurement
               + _workload(profile).warmup_seconds)
    tasks: List[RunTask] = []
    for _, factory, stormy in _SERIES:
        for rep in range(runs):
            options = backend.options
            if stormy:
                options = dataclasses.replace(
                    options, faults=FaultSchedule.throttle_storm(
                        seed=base_seed + rep, duration=horizon,
                        cores=range(4)))
            tasks.append(RunTask(_workload(profile), CONFIG,
                                 base_seed + rep, factory, options))
    results = iter(backend.execute(tasks))
    data: Dict = {"runs": runs, "config": CONFIG, "series": {}}
    for name, _, _ in _SERIES:
        data["series"][name] = [
            next(results).metric("throughput") for _ in range(runs)]
    return data


def render(data: Dict) -> str:
    """Per-series throughput by repetition, plus the min..max spread."""
    xs = list(range(data["runs"]))
    series = dict(data["series"])
    table = format_series(
        f"Figure 11 SPECjbb throughput (ops/s) on {data['config']} "
        "under throttle storms",
        xs, series, x_name="run")
    spreads = []
    for name, values in data["series"].items():
        low, high = min(values), max(values)
        spread = (high - low) / high * 100.0 if high > 0 else 0.0
        spreads.append(f"  {name:12s} min {low:9.1f}  max {high:9.1f}"
                       f"  spread {spread:5.1f}%")
    return table + "\n\nrun-to-run spread (instability):\n" \
        + "\n".join(spreads)
