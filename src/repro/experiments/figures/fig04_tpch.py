"""Figure 4 — TPC-H runtimes under the default tuning.

(a) Power run (all queries in series), parallelization degree 4,
    optimization degree 7, multiple runs: symmetric configurations
    cluster tightly; asymmetric ones vary significantly.
(b) A single query (Q3) run many times: the same pattern, plus (text)
    with intra-query parallelization off the runtimes are *bimodal* —
    fast-processor runs and slow-processor runs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.parallel import Backend, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_sweep, format_table
from repro.experiments.runner import Runner
from repro.workloads.tpch import TpchPowerRun, TpchQuery


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    backend = backend if backend is not None else make_backend(jobs)
    power = Runner(runs=profile.runs, base_seed=base_seed,
                   backend=backend).run(
        TpchPowerRun(parallel_degree=4, optimization_degree=7,
                     queries=list(profile.tpch_queries)))
    query3 = Runner(runs=profile.tpch_query_runs,
                    base_seed=base_seed, backend=backend).run(
        TpchQuery(3, parallel_degree=4, optimization_degree=7))
    serial_q3 = Runner(configs=["2f-2s/8"],
                       runs=profile.tpch_query_runs,
                       base_seed=base_seed, backend=backend).run(
        TpchQuery(3, parallel_degree=1, optimization_degree=7))
    return {"a": power, "b": query3, "serial": serial_q3}


def render(data: Dict) -> str:
    serial_runs = [run.metric("runtime")
                   for run in data["serial"].results["2f-2s/8"]]
    rows = [[f"{value:.2f}s"] for value in serial_runs]
    return "\n\n".join([
        "Figure 4(a) TPC-H power run (par=4, opt=7)\n"
        + format_sweep(data["a"], unit="s"),
        "Figure 4(b) query 3 runtimes (par=4, opt=7)\n"
        + format_sweep(data["b"], unit="s"),
        "Query 3 with intra-query parallelization off (2f-2s/8) — "
        "bimodal:\n" + format_table(["runtime"], rows),
    ])
