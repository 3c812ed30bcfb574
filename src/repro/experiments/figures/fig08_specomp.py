"""Figure 8 — SPEC OMP runtimes.

(a) Unmodified sources (static/guided loops): stable but *not*
    predictably scalable — the slowest core bounds every statically
    divided loop, so 2f-2s/8 runtimes sit near 0f-4s/8; galgel and
    fma3d on 2f-2s/8 are worse than on 0f-4s/4; ammp is the exception
    (its remainder-heavy static split happens to favour fast cores).
(b) Sources modified to dynamic parallelization directives: higher
    absolute runtimes, but asymmetric configurations now beat the
    midpoint of 4f-0s and 0f-4s/8 — asymmetry pays off.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.parallel import Backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_table
from repro.experiments.runner import Runner
from repro.workloads.specomp import BENCHMARK_NAMES, SpecOmpBenchmark

#: SPEC OMP configurations shown in Figure 8.
CONFIGS = ("4f-0s", "2f-2s/8", "0f-4s/4", "0f-4s/8")


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    runs = max(2, profile.runs)
    runner = Runner(configs=CONFIGS, runs=runs,
                    base_seed=base_seed, backend=backend, jobs=jobs)
    data: Dict[str, Dict] = {"a": {}, "b": {}, "configs": list(CONFIGS)}
    for name in BENCHMARK_NAMES:
        data["a"][name] = runner.run(SpecOmpBenchmark(name, "reference"))
        data["b"][name] = runner.run(SpecOmpBenchmark(name, "modified"))
    return data


def render(data: Dict) -> str:
    configs = data["configs"]
    blocks = []
    for panel, title in (("a", "unmodified source"),
                         ("b", "modified (dynamic directives)")):
        rows = []
        for name, sweep in data[panel].items():
            means = sweep.means()
            rows.append([name] + [f"{means[c]:.2f}" for c in configs])
        blocks.append(
            f"Figure 8({panel}) SPEC OMP runtimes (s), {title}\n"
            + format_table(["benchmark"] + list(configs), rows))
    return "\n\n".join(blocks)
