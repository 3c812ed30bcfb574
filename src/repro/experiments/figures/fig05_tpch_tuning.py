"""Figure 5 — TPC-H under different parallelization/optimization.

(a) Raising the parallelization degree to 8 *increases* the variance
    (at times 2x that of degree 4) — more scheduling decisions per
    query, and the paper's modified kernel cannot help because DB2
    binds its server processes itself.
(b) Dropping the optimization degree to 2 slows every run but shrinks
    the instability, at times by nearly a factor of 10 — evidence that
    the application (the query optimizer), not the OS scheduler, owns
    the remaining instability.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.parallel import Backend, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_sweep
from repro.experiments.runner import Runner
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.workloads.tpch import TpchPowerRun


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    queries = list(profile.tpch_queries)
    backend = backend if backend is not None else make_backend(jobs)
    runner = Runner(runs=profile.runs, base_seed=base_seed,
                    backend=backend)
    high_par = runner.run(TpchPowerRun(parallel_degree=8,
                                       optimization_degree=7,
                                       queries=queries))
    low_opt = runner.run(TpchPowerRun(parallel_degree=4,
                                      optimization_degree=2,
                                      queries=queries))
    # The kernel fix is ineffective here (processor-bound server
    # processes): identical spread with the asymmetry-aware scheduler.
    fixed_kernel = Runner(
        configs=["2f-2s/8"], runs=profile.runs, base_seed=base_seed,
        scheduler_factory=AsymmetryAwareScheduler, backend=backend,
    ).run(TpchPowerRun(parallel_degree=8, optimization_degree=7,
                       queries=queries))
    return {"a": high_par, "b": low_opt, "fixed": fixed_kernel}


def render(data: Dict) -> str:
    return "\n\n".join([
        "Figure 5(a) TPC-H power run, parallelization degree 8\n"
        + format_sweep(data["a"], unit="s"),
        "Figure 5(b) TPC-H power run, optimization degree 2\n"
        + format_sweep(data["b"], unit="s"),
        "Modified (asymmetry-aware) kernel, par=8 (fix ineffective)\n"
        + format_sweep(data["fixed"], unit="s"),
    ])
