"""Figure 2 — SPECjbb scalability & the asymmetry-aware kernel.

(a) Average throughput across the nine configurations with error bars:
    symmetric configurations scale predictably and tightly; asymmetric
    ones scale on average but with large run-to-run variability.
(b) The asymmetry-aware kernel scheduler eliminates the instability on
    the asymmetric configuration (compare with Figure 1(b)).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.parallel import Backend, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_sweep
from repro.experiments.runner import ConfigSweep, Runner
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.runtime.jvm import GCKind
from repro.workloads.specjbb import SpecJBB


def _workload(profile: Profile) -> SpecJBB:
    return SpecJBB(vm="jrockit", gc=GCKind.CONCURRENT,
                   measurement_seconds=profile.specjbb_measurement)


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    backend = backend if backend is not None else make_backend(jobs)
    sweep = Runner(runs=profile.runs, base_seed=base_seed,
                   backend=backend).run(_workload(profile))
    fixed = Runner(configs=["4f-0s", "2f-2s/8"], runs=profile.runs,
                   base_seed=base_seed,
                   scheduler_factory=AsymmetryAwareScheduler,
                   backend=backend).run(_workload(profile))
    return {"a": sweep, "b": fixed}


def render(data: Dict) -> str:
    sweep: ConfigSweep = data["a"]
    fixed: ConfigSweep = data["b"]
    return "\n\n".join([
        "Figure 2(a) SPECjbb scalability & predictability\n"
        + format_sweep(sweep, unit=" ops/s"),
        "Figure 2(b) with asymmetry-aware kernel scheduler\n"
        + format_sweep(fixed, unit=" ops/s"),
    ])
