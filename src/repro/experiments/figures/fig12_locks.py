"""Figure 12 — slow-holder lock collapse and the asymmetry-aware lock.

The paper's workloads serialize on kernel and runtime locks (DB2's
buffer-pool latches, Apache's accept mutex, the JVM's allocation
locks).  On an asymmetric machine those locks add a failure mode the
paper's scheduler-level analysis does not reach: whenever the *holder*
of a contended lock runs on (or is throttled onto) a slow core, every
waiter's progress is gated by the slow core's rate — the critical
path of the whole population collapses to the holder's speed.

This exhibit measures that collapse on the 2f-2s/8 machine with the
:class:`~repro.workloads.lockstress.LockStress` microbenchmark and
shows the lock-level fix, :class:`~repro.kernel.sync.AsymMutex`
(DESIGN.md §11): hand contended locks to fast-core waiters first and
migrate the next critical section onto an idle fast core.

Six series — three lock setups under each kernel scheduler:

* ``fifo`` — plain FIFO mutex, no faults (baseline);
* ``fifo+storm`` — the same lock under a throttle storm
  (:meth:`repro.faults.FaultSchedule.throttle_storm`): transient
  duty-cycle faults strand critical sections on slowed cores and
  throughput collapses;
* ``asym+storm`` — the *same* storms with the asymmetry-aware lock:
  speed-aware handoff recovers most of the collapse.

Under the stock scheduler the lock-level fix is the only defence and
recovers the bulk of the gap; under the asymmetry-aware scheduler the
kernel already keeps fast cores busy, so the collapse is smaller to
begin with — the two fixes compose rather than compete.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.experiments.parallel import Backend, RunTask, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_series
from repro.faults import FaultSchedule
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.workloads.lockstress import LockStress

#: Machine under test: the paper's flagship asymmetric configuration.
CONFIG = "2f-2s/8"

#: (series label, scheduler factory or None for stock, lock kind,
#: storm?).
_SERIES = [
    ("stock/fifo", None, "fifo", False),
    ("stock/fifo+storm", None, "fifo", True),
    ("stock/asym+storm", None, "asym", True),
    ("asym/fifo", AsymmetryAwareScheduler, "fifo", False),
    ("asym/fifo+storm", AsymmetryAwareScheduler, "fifo", True),
    ("asym/asym+storm", AsymmetryAwareScheduler, "asym", True),
]


def _workload(profile: Profile, kind: str) -> LockStress:
    return LockStress(lock_kind=kind,
                      duration=profile.lockstress_seconds)


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    """Collect the six series; returns {series: [throughput/run]}."""
    runs = max(2, profile.runs)
    backend = backend if backend is not None else make_backend(jobs)
    horizon = profile.lockstress_seconds
    tasks: List[RunTask] = []
    for _, factory, kind, stormy in _SERIES:
        for rep in range(runs):
            options = backend.options
            if stormy:
                options = dataclasses.replace(
                    options, faults=FaultSchedule.throttle_storm(
                        seed=base_seed + rep, duration=horizon,
                        cores=range(4)))
            tasks.append(RunTask(_workload(profile, kind), CONFIG,
                                 base_seed + rep, factory, options))
    results = iter(backend.execute(tasks))
    data: Dict = {"runs": runs, "config": CONFIG, "series": {}}
    for name, _, _, _ in _SERIES:
        data["series"][name] = [
            next(results).metric("throughput") for _ in range(runs)]
    return data


def recovered_fraction(data: Dict, scheduler: str = "stock") -> float:
    """Fraction of the storm collapse the asymmetry-aware lock wins
    back under the given scheduler series (1.0 = full recovery)."""
    series = data["series"]
    clean = sum(series[f"{scheduler}/fifo"]) / data["runs"]
    storm = sum(series[f"{scheduler}/fifo+storm"]) / data["runs"]
    fixed = sum(series[f"{scheduler}/asym+storm"]) / data["runs"]
    gap = clean - storm
    if gap <= 0:
        return 1.0
    return (fixed - storm) / gap


def render(data: Dict) -> str:
    """Per-series throughput by repetition plus the recovery summary."""
    xs = list(range(data["runs"]))
    table = format_series(
        f"Figure 12 LockStress throughput (sections/s) on "
        f"{data['config']} under throttle storms",
        xs, dict(data["series"]), x_name="run")
    lines = []
    for sched in ("stock", "asym"):
        series = data["series"]
        clean = sum(series[f"{sched}/fifo"]) / data["runs"]
        storm = sum(series[f"{sched}/fifo+storm"]) / data["runs"]
        fixed = sum(series[f"{sched}/asym+storm"]) / data["runs"]
        drop = (clean - storm) / clean * 100.0 if clean > 0 else 0.0
        rec = recovered_fraction(data, sched) * 100.0
        lines.append(
            f"  {sched:5s} scheduler: storm collapse {drop:5.1f}%  "
            f"(fifo {clean:8.0f} -> {storm:8.0f}); AsymMutex "
            f"{fixed:8.0f} recovers {rec:5.1f}% of the gap")
    return table + "\n\nslow-holder collapse and recovery:\n" \
        + "\n".join(lines)
