"""Figure 6 — Apache throughput.

(a) Light load, six runs per configuration: symmetric configurations
    cluster; asymmetric ones spread vertically.  (Heavy load — shown
    here too — is stable: every processor is always busy.)
(b) Two remedies under light load: the asymmetry-aware kernel makes
    runs repeatable at full throughput; fine-grained threading
    (recycling workers every 50 requests) also removes the instability
    but at significantly lower, poorly scaling throughput.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.parallel import Backend, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_sweep
from repro.experiments.runner import Runner
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.workloads.webserver import ApacheWorkload

#: The paper plots six runs per configuration.
RUNS = 6


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    runs = RUNS if profile.name == "paper" else profile.runs
    seconds = profile.web_measurement
    backend = backend if backend is not None else make_backend(jobs)

    def light(**kwargs):
        return ApacheWorkload("light", measurement_seconds=seconds,
                              **kwargs)

    runner = Runner(runs=runs, base_seed=base_seed, backend=backend)
    data = {
        "light": runner.run(light()),
        "heavy": runner.run(ApacheWorkload(
            "heavy", measurement_seconds=seconds)),
        "asym_kernel": Runner(
            runs=runs, base_seed=base_seed,
            scheduler_factory=AsymmetryAwareScheduler,
            backend=backend).run(light()),
        "fine_grained": runner.run(light(fine_grained=True)),
    }
    return data


def render(data: Dict) -> str:
    return "\n\n".join([
        "Figure 6(a) Apache light load\n"
        + format_sweep(data["light"], unit=" req/s"),
        "Apache heavy load (stable: all processors busy)\n"
        + format_sweep(data["heavy"], unit=" req/s"),
        "Figure 6(b) asymmetry-aware kernel\n"
        + format_sweep(data["asym_kernel"], unit=" req/s"),
        "Figure 6(b) fine-grained threading (recycle after 50)\n"
        + format_sweep(data["fine_grained"], unit=" req/s"),
    ])
