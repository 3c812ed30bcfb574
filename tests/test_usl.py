"""The USL model layer (:mod:`repro.analysis.usl`, DESIGN.md §10).

Synthetic curves on both axes (throughput on total compute power,
runtime on the straggler axis) must be recovered exactly, degenerate
inputs must be rejected, and an unphysical fit must still pass
through the measurements it was fitted to.  The performance report
applies this fit to measured sweeps.
"""

from __future__ import annotations

import pytest

from repro.analysis.usl import fit_usl, scaling_axis
from repro.machine.topology import STANDARD_CONFIG_LABELS, MachineConfig


def _usl_curve(gamma, sigma, kappa, x):
    return gamma * x / (1.0 + sigma * (x - 1.0)
                        + kappa * x * (x - 1.0))


def test_fit_recovers_synthetic_throughput_curve():
    gamma, sigma, kappa = 120.0, 0.08, 0.015
    points = {label: _usl_curve(gamma, sigma, kappa,
                                MachineConfig.parse(label)
                                .total_compute_power)
              for label in STANDARD_CONFIG_LABELS}
    fit = fit_usl(points, higher_is_better=True)
    assert fit.gamma == pytest.approx(gamma, rel=1e-9)
    assert fit.sigma == pytest.approx(sigma, rel=1e-6)
    assert fit.kappa == pytest.approx(kappa, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.physical
    for label, value in points.items():
        assert fit.predict_config(label) == \
            pytest.approx(value, rel=1e-9)


def test_fit_recovers_synthetic_runtime_curve():
    gamma, sigma, kappa = 0.25, 0.4, 0.02
    points = {}
    for label in STANDARD_CONFIG_LABELS:
        x, base = scaling_axis(label, higher_is_better=False)
        points[label] = 1.0 / (base * _usl_curve(gamma, sigma,
                                                 kappa, x))
    fit = fit_usl(points, higher_is_better=False)
    assert fit.gamma == pytest.approx(gamma, rel=1e-6)
    assert fit.sigma == pytest.approx(sigma, rel=1e-6)
    assert fit.kappa == pytest.approx(kappa, rel=1e-5)
    for label, value in points.items():
        assert fit.predict_config(label) == \
            pytest.approx(value, rel=1e-9)


def test_scaling_axis_shapes():
    # Throughput: total compute power, no normalization.
    assert scaling_axis("2f-2s/8", True) == (2.25, 1.0)
    assert scaling_axis("4f-0s", True) == (4.0, 1.0)
    # Runtime: 1 + cores faster than the slowest, straggler capacity.
    assert scaling_axis("2f-2s/8", False) == (3.0, 4 * 0.125)
    assert scaling_axis("0f-4s/4", False) == (1.0, 4 * 0.25)
    # A homogeneous machine has no cores outrunning the slowest.
    assert scaling_axis("4f-0s", False) == (1.0, 4.0)


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="positive measurements"):
        fit_usl({"4f-0s": 0.0, "2f-2s/8": 1.0, "0f-4s/8": 1.0})
    with pytest.raises(ValueError, match="three configurations"):
        fit_usl({"4f-0s": 4.0, "2f-2s/8": 2.0})
    # On the runtime axis these three all sit at x == 1 (no core
    # outruns the slowest), so the fit has one abscissa, not three.
    with pytest.raises(ValueError, match="three configurations"):
        fit_usl({"4f-0s": 1.0, "0f-4s/4": 4.0, "0f-4s/8": 8.0},
                higher_is_better=False)


def test_unphysical_fit_still_interpolates():
    points = {"0f-4s/8": 1.0, "2f-2s/8": 7.0, "4f-0s": 9.0}
    fit = fit_usl(points, higher_is_better=True)
    assert not fit.physical  # superlinear start: sigma < 0
    for label, value in points.items():
        assert fit.predict_config(label) == \
            pytest.approx(value, rel=1e-9)

