"""Figure 10 — predictability and scalability of all benchmarks.

For every workload and all nine configurations: mean speedup over the
0f-4s/8 baseline, with error bars from repeated runs.  The symmetric
configurations show little variability (H.264 on 4f-0s reads CoV
0.028, the most); SPECjbb, Apache (light), Zeus
(light) and TPC-H show significant variance on the asymmetric ones;
SPEC OMP and H.264 are limited by the slowest core.

The collected sweeps also feed Table 1 (see ``table1_summary``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.parallel import Backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_speedups, format_table
from repro.experiments.runner import ConfigSweep, Runner
from repro.runtime.jvm import GCKind
from repro.workloads import (
    ApacheWorkload,
    H264Encoder,
    Pmake,
    SpecJAppServer,
    SpecJBB,
    TpchPowerRun,
    ZeusWorkload,
)
from repro.workloads.specomp import SpecOmpBenchmark


def collect(profile: Profile = QUICK, base_seed: int = 100,
            jobs: Optional[int] = None,
            backend: Optional[Backend] = None) -> Dict[str, ConfigSweep]:
    """Run every workload over the nine configurations.

    SPEC OMP is represented by one benchmark with the suite's typical
    static structure (swim); the full suite is Figure 8's job.
    """
    runner = Runner(runs=profile.runs, base_seed=base_seed,
                    backend=backend, jobs=jobs)
    workloads = [
        SpecJAppServer(injection_rate=max(profile.injection_rates)),
        SpecJBB(gc=GCKind.CONCURRENT,
                measurement_seconds=profile.specjbb_measurement),
        ApacheWorkload("light",
                       measurement_seconds=profile.web_measurement),
        ZeusWorkload("light",
                     measurement_seconds=profile.web_measurement),
        TpchPowerRun(parallel_degree=4, optimization_degree=7,
                     queries=list(profile.tpch_queries)),
        H264Encoder(frames=profile.h264_frames),
        SpecOmpBenchmark("swim", "reference"),
        Pmake(n_files=profile.pmake_files),
    ]
    return {workload.name: runner.run(workload)
            for workload in workloads}


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    return {"sweeps": collect(profile, base_seed, jobs=jobs,
                              backend=backend)}


def render(data: Dict) -> str:
    sweeps = data["sweeps"]
    blocks = [
        "Figure 10: speedup over 0f-4s/8 (means)\n"
        + format_speedups(sweeps)
    ]
    rows = []
    for name, sweep in sweeps.items():
        for label in sweep.configs:
            summary = sweep.summary(label)
            rows.append([name, label, f"{summary.cov:.3f}"])
    blocks.append("Run-to-run variability (CoV of primary metric)\n"
                  + format_table(["workload", "config", "CoV"], rows))
    return "\n\n".join(blocks)
