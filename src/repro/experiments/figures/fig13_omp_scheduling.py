"""Figure 13 — performance-portable OpenMP scheduling on asymmetric cores.

The paper's Figure 8 shows SPEC OMP collapsing on asymmetric configs
because static, dynamic and guided all let slow cores become
stragglers.  This exhibit sweeps the full `LoopSchedule` menu —
including the performance-portable ``static_weighted`` of DESIGN.md
§14 (speed-proportional contiguous chunks) — over all nine machine
configurations, clean and under throttle storms
(:meth:`repro.faults.FaultSchedule.throttle_storm` reprogramming duty
cycles mid-loop).

Acceptance bar (checked by :func:`run`, which raises
:class:`~repro.errors.ReproError` below it): on the flagship asymmetric
machine ``2f-2s/8``, ``static_weighted`` must recover at least 70% of
the makespan gap stock ``static`` leaves between the symmetric
``4f-0s`` machine and the asymmetric one.  Measured recovery is 88.8%
clean, on every seed.  Under storms core speeds change while the loop
runs, the entry-time split goes stale, and ``dynamic``, which hands
out work on demand, rebalances best; how much ``static_weighted``
recovers there depends on where the storm lands (DESIGN.md §14).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.experiments.parallel import Backend, RunTask, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_sweep
from repro.experiments.runner import ConfigSweep
from repro.faults import FaultSchedule
from repro.machine.topology import STANDARD_CONFIG_LABELS
from repro.workloads.specomp import OMP_SCHEDULES, SpecOmpBenchmark

#: Representative benchmark: swim is the suite's most loop-parallel
#: member (serial fraction 2%), so scheduling quality dominates.
BENCHMARK = "swim"

#: The paper's flagship asymmetric machine and its symmetric peer.
CONFIG = "2f-2s/8"
SYMMETRIC = "4f-0s"

#: Minimum fraction of the static asymmetry gap static_weighted must
#: win back on a clean machine.
RECOVERY_BAR = 0.70

#: Storm horizon (seconds): covers the slowest clean makespan (~4.8s
#: for swim/static on 0f-4s/8) with headroom for storm slowdown.
STORM_HORIZON = 8.0


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None,
        configs: Optional[Sequence[str]] = None,
        policies: Sequence[str] = OMP_SCHEDULES,
        runs: Optional[int] = None) -> Dict:
    """Sweep every schedule over the configs, clean and under storms.

    Returns ``{"clean"|"storm": {policy: ConfigSweep}}`` plus run
    parameters.  Raises :class:`ReproError` when static_weighted misses
    the recovery bar, whenever the sweep covers the configs and policies
    the bar is defined over.
    """
    configs = list(configs if configs is not None
                   else STANDARD_CONFIG_LABELS)
    runs = runs if runs is not None else max(2, profile.runs)
    backend = backend if backend is not None else make_backend(jobs)
    tasks: List[RunTask] = []
    for stormy in (False, True):
        for policy in policies:
            for config in configs:
                for rep in range(runs):
                    options = backend.options
                    if stormy:
                        options = dataclasses.replace(
                            options, faults=FaultSchedule.throttle_storm(
                                seed=base_seed + rep,
                                duration=STORM_HORIZON,
                                cores=range(4)))
                    tasks.append(RunTask(
                        SpecOmpBenchmark(BENCHMARK, omp_schedule=policy),
                        config, base_seed + rep, None, options))
    results = iter(backend.execute(tasks))
    data: Dict = {"benchmark": BENCHMARK, "configs": configs,
                  "runs": runs, "policies": list(policies),
                  "clean": {}, "storm": {}}
    for mode in ("clean", "storm"):
        for policy in policies:
            sweep = ConfigSweep(workload=f"OMP-{BENCHMARK}",
                                primary_metric="runtime",
                                higher_is_better=False)
            for config in configs:
                sweep.results[config] = [next(results)
                                         for _ in range(runs)]
            data[mode][policy] = sweep
    if ({SYMMETRIC, CONFIG} <= set(configs)
            and {"static", "static_weighted"} <= set(policies)):
        recovery = recovered_fraction(data)
        if recovery < RECOVERY_BAR:
            raise ReproError(
                f"static_weighted recovered only {recovery:.1%} of the "
                f"static asymmetry gap on {CONFIG} "
                f"(bar: {RECOVERY_BAR:.0%})")
    return data


def recovered_fraction(data: Dict, policy: str = "static_weighted",
                       mode: str = "clean") -> float:
    """Fraction of static's symmetric-vs-asymmetric makespan gap on
    ``2f-2s/8`` the given policy wins back (1.0 = symmetric speed)."""
    static_means = data[mode]["static"].means()
    policy_means = data[mode][policy].means()
    sym = static_means[SYMMETRIC]
    asym = static_means[CONFIG]
    fixed = policy_means[CONFIG]
    gap = asym - sym
    if gap <= 0:
        return 1.0
    return (asym - fixed) / gap


def render(data: Dict) -> str:
    """Per-policy makespan tables (clean + storm) and recovery lines."""
    sections = [
        f"Figure 13 OMP-{data['benchmark']} makespan (s) by loop "
        f"schedule ({data['runs']} runs/cell)"]
    for mode, title in (("clean", "clean machine"),
                        ("storm", "throttle storms")):
        sections.append(f"[{title}]\n"
                        + format_sweep(policies=data[mode]))
    lines = []
    for mode in ("clean", "storm"):
        for policy in data["policies"]:
            if policy == "static":
                continue
            rec = recovered_fraction(data, policy, mode) * 100.0
            lines.append(f"  {mode:5s} {policy:16s} recovers "
                         f"{rec:6.1f}% of static's asymmetry gap "
                         f"on {CONFIG}")
    sections.append("recovery of the static-schedule gap (bar: "
                    f"static_weighted >= {RECOVERY_BAR:.0%} clean):\n"
                    + "\n".join(lines))
    return "\n\n".join(sections)
