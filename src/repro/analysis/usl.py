"""Gunther's Universal Scalability Law fitted to config sweeps.

The nine-configuration sweep behind every figure measures performance
as a function of machine shape.  Gunther's USL (PAPERS.md,
arXiv:1105.4301) models speed at concurrency x as

.. math::

    X(x) = \\frac{\\gamma x}{1 + \\sigma (x - 1) + \\kappa x (x - 1)}

where :math:`\\gamma` is per-unit capacity, :math:`\\sigma` the
contention (serialization) penalty and :math:`\\kappa` the coherency
(crosstalk) penalty.  The law nests the sweep's empirical regimes:
:math:`\\sigma = \\kappa = 0` is linear scaling, :math:`\\kappa = 0`
is Amdahl's law (cf. :mod:`repro.analysis.amdahl`), and
:math:`\\kappa > 0` gives the retrograde rollover the asymmetric
scheduling literature (arXiv:1702.04028) predicts.

What "concurrency" means depends on what limits the workload, and the
paper supplies the taxonomy (:func:`scaling_axis`):

* **Throughput metrics** (``higher_is_better``) are capacity-bound:
  the axis is total compute power ``n + m/scale`` and speed is used
  raw.  SPECjbb's transaction rate tracks aggregate capacity across
  both core-speed families.
* **Runtime metrics** are straggler-bound: the paper's §3.3 DB2
  finding (server processes bound to processors, a query finishing
  with its slowest piece) makes latency scale with the *slowest*
  core, modulated by how many cores outrun it.  Speed is normalized
  by the straggler capacity ``n_cores * s_min`` and the axis is
  ``1 + #cores faster than the slowest`` — which collapses the
  ``/4`` and ``/8`` families (and the homogeneous machines) onto a
  single curve.

Fitting is least squares on the standard linearization: with
:math:`y = x / X(x)`,

.. math::

    y = a + b (x - 1) + c x (x - 1),
    \\quad \\gamma = 1/a, \\; \\sigma = b/a, \\; \\kappa = c/a

which turns the fit into a 3x3 normal-equation solve — plain
arithmetic, no numerical dependencies.  The solution is kept
*unconstrained*: a slightly negative :math:`\\sigma` (superlinear
measurements) is retained rather than clamped, so the fit stays the
least-squares fit of what was measured; through three configurations
it passes through every point.  The performance report fits the
measured sweep and shows :attr:`UslFit.physical`, which says whether
the coefficients landed in Gunther's :math:`\\sigma, \\kappa \\ge 0`
region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.machine.topology import MachineConfig


def scaling_axis(label: str,
                 higher_is_better: bool) -> Tuple[float, float]:
    """``(x, base)`` placing one configuration on the USL curve.

    ``x`` is the concurrency coordinate and ``base`` the capacity
    normalizer: the fit models ``speed / base`` as a function of
    ``x``.  Throughput metrics use ``(total compute power, 1)``;
    runtime metrics use the straggler axis
    ``(1 + #cores faster than the slowest, n_cores * s_min)`` — see
    the module docstring for the paper-derived rationale.
    """
    config = MachineConfig.parse(label)
    if higher_is_better:
        return config.total_compute_power, 1.0
    speeds = config.core_speeds()
    slowest = min(speeds)
    faster = sum(1 for speed in speeds if speed > slowest)
    return 1.0 + faster, len(speeds) * slowest


@dataclass(frozen=True)
class UslFit:
    """A fitted USL model in the source metric's units."""

    gamma: float
    sigma: float
    kappa: float
    #: Coefficient of determination of predicted vs. observed
    #: (normalized) speeds.
    r_squared: float
    #: True when the metric the fit was built from is a throughput;
    #: False when it is a runtime (fitted as normalized 1/runtime).
    higher_is_better: bool

    @property
    def physical(self) -> bool:
        """Whether the coefficients lie in Gunther's sigma,kappa >= 0
        region (an unphysical fit still interpolates exactly)."""
        return self.sigma >= 0.0 and self.kappa >= 0.0

    def throughput(self, x: float) -> float:
        """Modelled normalized speed X(x) at concurrency ``x``."""
        if x <= 0.0:
            raise ValueError("concurrency must be positive")
        return (self.gamma * x
                / (1.0 + self.sigma * (x - 1.0)
                   + self.kappa * x * (x - 1.0)))

    def predict_config(self, label: str) -> float:
        """Modelled value of the *original* metric on configuration
        ``label`` (throughput for higher-is-better, else runtime)."""
        x, base = scaling_axis(label, self.higher_is_better)
        speed = base * self.throughput(x)
        if speed <= 0.0:
            raise ValueError(
                f"USL model predicts non-positive speed on {label!r}; "
                "the fitted configurations do not bracket this regime")
        return speed if self.higher_is_better else 1.0 / speed


def _solve3(matrix: List[List[float]],
            rhs: List[float]) -> Tuple[float, float, float]:
    """Solve a 3x3 linear system by Cramer's rule."""

    def det(m: List[List[float]]) -> float:
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(matrix)
    if d == 0.0:
        raise ValueError(
            "singular USL system: the configurations are collinear "
            "in (1, x-1, x(x-1)); fit configurations with distinct "
            "concurrency coordinates")
    out = []
    for col in range(3):
        m = [row[:] for row in matrix]
        for i in range(3):
            m[i][col] = rhs[i]
        out.append(det(m) / d)
    return out[0], out[1], out[2]


def fit_usl(points: Dict[str, float],
            higher_is_better: bool = True) -> UslFit:
    """Least-squares USL fit to per-configuration measurements.

    ``points`` maps configuration labels to the mean primary metric
    (the shape :meth:`ConfigSweep.means
    <repro.experiments.runner.ConfigSweep.means>` returns).  At least
    three configurations with distinct concurrency coordinates (see
    :func:`scaling_axis`) are required — the model has three
    parameters; with exactly three the fit passes through all three
    points.
    """
    pairs: List[Tuple[float, float]] = []
    for label, value in points.items():
        if value <= 0.0:
            raise ValueError(
                f"USL fit requires positive measurements; "
                f"{label!r} measured {value}")
        x, base = scaling_axis(label, higher_is_better)
        speed = value if higher_is_better else 1.0 / value
        pairs.append((x, speed / base))
    if len({x for x, _ in pairs}) < 3:
        raise ValueError(
            "USL fit needs at least three configurations with "
            "distinct concurrency coordinates")

    # Normal equations for y = a + b*(x-1) + c*x*(x-1), y = x/speed.
    ata = [[0.0] * 3 for _ in range(3)]
    aty = [0.0] * 3
    for x, speed in pairs:
        basis = (1.0, x - 1.0, x * (x - 1.0))
        y = x / speed
        for i in range(3):
            aty[i] += basis[i] * y
            for j in range(3):
                ata[i][j] += basis[i] * basis[j]
    a, b, c = _solve3(ata, aty)
    if a <= 0.0:
        raise ValueError(
            "degenerate USL fit: non-positive unit capacity "
            f"(a={a}); the measurements do not look like a "
            "throughput curve")

    gamma, sigma, kappa = 1.0 / a, b / a, c / a
    fit = UslFit(gamma=gamma, sigma=sigma, kappa=kappa,
                 r_squared=0.0, higher_is_better=higher_is_better)
    mean_speed = sum(speed for _, speed in pairs) / len(pairs)
    ss_tot = sum((speed - mean_speed) ** 2 for _, speed in pairs)
    ss_res = sum((speed - fit.throughput(x)) ** 2 for x, speed in pairs)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return UslFit(gamma=gamma, sigma=sigma, kappa=kappa,
                  r_squared=r_squared,
                  higher_is_better=higher_is_better)
