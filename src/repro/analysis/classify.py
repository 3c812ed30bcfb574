"""Programmatic Table 1: is a workload predictable?  scalable?

The paper's Table 1 is a qualitative judgment; we derive it from the
measured data with explicit thresholds:

* **predictable** — the worst coefficient of variation across the
  *asymmetric* configurations stays below a threshold.  (Symmetric
  configurations are the control: they must always pass, or the
  experiment itself is broken.)
* **scalable** — mean speed correlates strongly with total compute
  power across all configurations (R² of the linear fit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from repro.analysis.stats import scaling_fit, summarize
from repro.machine.topology import (
    ASYMMETRIC_CONFIG_LABELS,
    SYMMETRIC_CONFIG_LABELS,
)

#: A workload is unpredictable when any asymmetric configuration's
#: run-to-run CoV exceeds this.  Symmetric controls mostly read below
#: 0.01, but not all: H.264 on 4f-0s reads 0.028 (fig10) and TPC-H at
#: parallelization degree 8 reads 0.042-0.045 (fig05; EXPERIMENTS.md,
#: "Known deviations" 5 and 6).  The stable workloads stay below ~0.05
#: (H.264's wavefront-tail noise peaks there) and the unstable ones
#: mostly sit at 0.08-0.7.
PREDICTABILITY_COV_THRESHOLD = 0.06

#: Speed-vs-power fits with R^2 below this mean "does not scale
#: predictably" (SPEC OMP's slowest-core-bound behaviour lands well
#: below it; the scalable workloads land at 0.9+; TPC-H's partially
#: slowest-core-bound static query plans sit just above).
SCALABILITY_R2_THRESHOLD = 0.65


@dataclass(frozen=True)
class Classification:
    """One workload's Table 1 row, with the evidence attached."""

    workload: str
    predictable: bool
    scalable: bool
    worst_asymmetric_cov: float
    worst_symmetric_cov: float
    scaling_r_squared: float

    def as_row(self) -> Dict[str, str]:
        return {
            "workload": self.workload,
            "predictable": "Yes" if self.predictable else "No",
            "scalable": "Yes" if self.scalable else "No",
            "worst asym CoV": f"{self.worst_asymmetric_cov:.3f}",
            "scaling R^2": f"{self.scaling_r_squared:.3f}",
        }


def classify(workload: str,
             samples: Mapping[str, Sequence[float]],
             higher_is_better: bool) -> Classification:
    """Derive a Table 1 row from per-configuration repeated runs.

    ``samples`` maps configuration labels to the primary-metric values
    of repeated runs on that configuration.
    """
    if not samples:
        raise ValueError("no samples to classify")
    worst_asym = 0.0
    worst_sym = 0.0
    means: Dict[str, float] = {}
    for label, values in samples.items():
        summary = summarize(list(values))
        means[label] = summary.mean
        if label in ASYMMETRIC_CONFIG_LABELS:
            worst_asym = max(worst_asym, summary.cov)
        elif label in SYMMETRIC_CONFIG_LABELS:
            worst_sym = max(worst_sym, summary.cov)
    fit = scaling_fit(means, higher_is_better)
    return Classification(
        workload=workload,
        predictable=worst_asym < PREDICTABILITY_COV_THRESHOLD,
        scalable=fit.r_squared >= SCALABILITY_R2_THRESHOLD,
        worst_asymmetric_cov=worst_asym,
        worst_symmetric_cov=worst_sym,
        scaling_r_squared=fit.r_squared,
    )
