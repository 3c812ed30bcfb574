"""Figure 3 — SPECjAppServer scalability and response times.

(a) Manufacturing and NewOrder throughput per configuration at the
    highest injection rate: roughly constant while the machine can
    sustain the rate (4f-0s .. 3f-1s/8), then a linear decline — the
    feedback loop scales the driver down on slower machines.
(b) Manufacturing response times (average / 90%ile / max) for three
    injection rates: they grow as compute power falls but stay stable,
    with the 90%ile close to the average.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.parallel import Backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_sweep, format_table
from repro.experiments.runner import Runner
from repro.workloads.jappserver import SpecJAppServer


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    runner = Runner(runs=profile.runs, base_seed=base_seed,
                    backend=backend, jobs=jobs)
    top_rate = max(profile.injection_rates)
    sweep = runner.run(SpecJAppServer(injection_rate=top_rate))
    by_rate = {}
    for rate in profile.injection_rates:
        if rate == top_rate:
            by_rate[rate] = sweep
        else:
            by_rate[rate] = runner.run(SpecJAppServer(injection_rate=rate))
    return {"a": sweep, "rates": by_rate}


def render(data: Dict) -> str:
    sweep = data["a"]
    blocks = [
        "Figure 3(a) SPECjAppServer throughput (manufacturing)\n"
        + format_sweep(sweep, metric="throughput", unit="/s"),
        "Figure 3(a) SPECjAppServer throughput (NewOrder)\n"
        + format_sweep(sweep, metric="neworder_throughput", unit="/s"),
    ]
    rows = []
    for rate, rate_sweep in data["rates"].items():
        for label in rate_sweep.configs:
            avg = rate_sweep.summary(label, "mean_response").mean
            p90 = rate_sweep.summary(label, "p90_response").mean
            worst = rate_sweep.summary(label, "max_response").mean
            rows.append([str(rate), label, f"{avg * 1000:.1f}",
                         f"{p90 * 1000:.1f}", f"{worst * 1000:.1f}"])
    blocks.append(
        "Figure 3(b) manufacturing response times (ms)\n"
        + format_table(["rate", "config", "avg", "90%", "max"], rows))
    return "\n\n".join(blocks)
