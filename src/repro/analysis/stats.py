"""Statistics over repeated workload runs.

The paper's two observables are *stability* (run-to-run variance on a
fixed configuration — the error bars of Figures 2(a) and 10) and
*scalability* (how the mean tracks total compute power).  This module
provides both, plus small helpers shared by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.machine.topology import MachineConfig


@dataclass(frozen=True)
class Summary:
    """Summary statistics of one metric over repeated runs."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def cov(self) -> float:
        """Coefficient of variation (std / mean); 0 for a zero mean."""
        if self.mean == 0:
            return 0.0
        return self.std / abs(self.mean)

    @property
    def spread(self) -> float:
        """Max - min: the height of the paper's error bars."""
        return self.maximum - self.minimum


def summarize(values: Sequence[float]) -> Summary:
    """Population summary of a non-empty sample."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return Summary(n=n, mean=mean, std=math.sqrt(variance),
                   minimum=min(values), maximum=max(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the paper reports 90%iles)."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def speedup_over(baseline: float, value: float,
                 higher_is_better: bool) -> float:
    """Figure 10's y-axis: performance relative to a baseline config.

    For throughput metrics speedup = value/baseline; for runtimes it is
    baseline/value, so > 1 always means "faster than baseline".
    """
    if baseline <= 0 or value <= 0:
        raise ValueError("speedup requires positive measurements")
    if higher_is_better:
        return value / baseline
    return baseline / value


def scaling_fit(points: Dict[str, float],
                higher_is_better: bool) -> "ScalingFit":
    """Least-squares fit of performance against total compute power.

    ``points`` maps configuration labels to mean performance.  The fit
    is of *speed* (throughput, or 1/runtime) against the ``n + m/scale``
    compute power, through the data's own scale.  The correlation
    coefficient is the paper's informal "scales predictably" check.
    """
    pairs: List[Tuple[float, float]] = []
    for label, value in points.items():
        power = MachineConfig.parse(label).total_compute_power
        speed = value if higher_is_better else 1.0 / value
        pairs.append((power, speed))
    if len(pairs) < 2:
        raise ValueError("scaling fit needs at least two configurations")
    xs = [p for p, _ in pairs]
    ys = [s for _, s in pairs]
    n = len(pairs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    if sxx == 0 or syy == 0:
        correlation = 0.0
    else:
        correlation = sxy / math.sqrt(sxx * syy)
    return ScalingFit(slope=slope, intercept=intercept,
                      correlation=correlation)


@dataclass(frozen=True)
class ScalingFit:
    """Linear fit of speed vs. total compute power."""

    slope: float
    intercept: float
    correlation: float

    @property
    def r_squared(self) -> float:
        return self.correlation ** 2
