"""Table 1 — qualitative results summary, derived from measurements.

For each workload: is performance predictable (stable run to run on
asymmetric machines)?  Is scalability predictable (does speed track
total compute power)?  Plus the paper's remedies, re-measured: the
asymmetry-aware kernel for SPECjbb and Apache, application-level
changes (dynamic directives) for SPEC OMP.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.figures import fig10_summary
from repro.experiments.parallel import Backend, make_backend
from repro.experiments.profiles import Profile, QUICK
from repro.experiments.report import format_table
from repro.experiments.runner import Runner
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.runtime.jvm import GCKind
from repro.workloads import ApacheWorkload, SpecJBB
from repro.workloads.specomp import SpecOmpBenchmark

#: Paper Table 1, for side-by-side comparison in reports.
PAPER_TABLE1 = {
    "SPECjbb": ("No (Yes with asymmetry-aware kernel)", "Yes"),
    "SPECjAppServer": ("Yes", "Yes"),
    "TPC-H": ("No (Yes, if application changes)", "Yes"),
    "Apache": ("No (Yes with asymmetry-aware kernel)", "Yes"),
    "Zeus": ("No", "Yes"),
    "OMP-swim": ("Sometimes (Yes with application change)",
                 "No (Yes with application change)"),
    "H.264": ("Yes", "Yes (asymmetry helps perf.)"),
    "PMAKE": ("Yes", "Yes (asymmetry helps perf.)"),
}


def run(profile: Profile = QUICK, base_seed: int = 100,
        jobs: Optional[int] = None,
        backend: Optional[Backend] = None) -> Dict:
    backend = backend if backend is not None else make_backend(jobs)
    sweeps = fig10_summary.collect(profile, base_seed, backend=backend)
    classifications = {name: sweep.classification()
                       for name, sweep in sweeps.items()}

    # Re-measure the paper's remedies on the worst configuration.
    fixed_runner = Runner(runs=profile.runs, base_seed=base_seed,
                          scheduler_factory=AsymmetryAwareScheduler,
                          backend=backend)
    remedies = {
        "SPECjbb + asym kernel": fixed_runner.run(SpecJBB(
            gc=GCKind.CONCURRENT,
            measurement_seconds=profile.specjbb_measurement)),
        "Apache + asym kernel": fixed_runner.run(ApacheWorkload(
            "light", measurement_seconds=profile.web_measurement)),
        "SPEC OMP modified": Runner(
            runs=profile.runs, base_seed=base_seed,
            backend=backend).run(
            SpecOmpBenchmark("swim", "modified")),
    }
    remedy_rows = {name: sweep.classification()
                   for name, sweep in remedies.items()}
    return {"classifications": classifications, "remedies": remedy_rows}


def render(data: Dict) -> str:
    rows = []
    for name, cls in data["classifications"].items():
        paper = PAPER_TABLE1.get(name, ("?", "?"))
        rows.append([
            name,
            "Yes" if cls.predictable else "No",
            "Yes" if cls.scalable else "No",
            f"{cls.worst_asymmetric_cov:.3f}",
            f"{cls.scaling_r_squared:.2f}",
            paper[0],
            paper[1],
        ])
    headers = ["workload", "predictable?", "scalable?", "worst CoV",
               "R^2", "paper: predictable", "paper: scalable"]
    blocks = ["Table 1 (measured vs. paper)\n"
              + format_table(headers, rows)]

    remedy_rows = []
    for name, cls in data["remedies"].items():
        remedy_rows.append([name,
                            "Yes" if cls.predictable else "No",
                            "Yes" if cls.scalable else "No",
                            f"{cls.worst_asymmetric_cov:.3f}"])
    blocks.append("Remedies re-measured\n" + format_table(
        ["remedy", "predictable?", "scalable?", "worst CoV"],
        remedy_rows))
    return "\n\n".join(blocks)
