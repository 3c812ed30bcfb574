"""Figure 7 — Zeus throughput.

Unlike Apache, Zeus is unstable on asymmetric configurations under
*both* light and heavy load; its throughput beats Apache's by up to
2.5x; and the asymmetry-aware kernel changes nothing, because Zeus
schedules its own pinned processes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.parallel import Backend, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_sweep
from repro.experiments.runner import Runner
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.workloads.webserver import ZeusWorkload

#: The paper plots six runs per configuration.
RUNS = 6


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    runs = RUNS if profile.name == "paper" else profile.runs
    seconds = profile.web_measurement
    backend = backend if backend is not None else make_backend(jobs)
    runner = Runner(runs=runs, base_seed=base_seed, backend=backend)
    return {
        "light": runner.run(ZeusWorkload(
            "light", measurement_seconds=seconds)),
        "heavy": runner.run(ZeusWorkload(
            "heavy", measurement_seconds=seconds)),
        "asym_kernel": Runner(
            configs=["2f-2s/8"], runs=runs, base_seed=base_seed,
            scheduler_factory=AsymmetryAwareScheduler, backend=backend,
        ).run(ZeusWorkload("light", measurement_seconds=seconds)),
    }


def render(data: Dict) -> str:
    return "\n\n".join([
        "Figure 7(a) Zeus light load\n"
        + format_sweep(data["light"], unit=" req/s"),
        "Figure 7(b) Zeus heavy load\n"
        + format_sweep(data["heavy"], unit=" req/s"),
        "Zeus light load with asymmetry-aware kernel (no effect)\n"
        + format_sweep(data["asym_kernel"], unit=" req/s"),
    ])
