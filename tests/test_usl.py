"""USL fitting and analytic sweep prediction (DESIGN.md §10).

Covers the model layer (:mod:`repro.analysis.usl`) with synthetic
exact-recovery cases, and ``Runner.predict_sweep`` end to end on the
two workloads the acceptance bar names: SPECjbb (throughput —
capacity axis) and the TPC-H power run (runtime — straggler axis),
checking the predicted curves against independently simulated full
sweeps and exercising the spot-check gate in both directions.
"""

from __future__ import annotations

import pytest

from repro.analysis.usl import (
    compute_power,
    fit_usl,
    scaling_axis,
)
from repro.errors import PredictionGateError
from repro.experiments.parallel import SerialBackend
from repro.experiments.runner import Runner
from repro.machine.topology import STANDARD_CONFIG_LABELS
from repro.service.cache import ResultCache
from repro.workloads.specjbb import SpecJBB
from repro.workloads.tpch.workload import TpchPowerRun


def _specjbb() -> SpecJBB:
    return SpecJBB(warehouses=4, measurement_seconds=0.3,
                   warmup_seconds=0.1)


def _tpch() -> TpchPowerRun:
    return TpchPowerRun(parallel_degree=4, optimization_degree=7,
                        queries=[1, 3, 6])


# ----------------------------------------------------------------------
# The model layer
# ----------------------------------------------------------------------
def _usl_curve(gamma, sigma, kappa, x):
    return gamma * x / (1.0 + sigma * (x - 1.0)
                        + kappa * x * (x - 1.0))


def test_fit_recovers_synthetic_throughput_curve():
    gamma, sigma, kappa = 120.0, 0.08, 0.015
    points = {label: _usl_curve(gamma, sigma, kappa,
                                compute_power(label))
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


# ----------------------------------------------------------------------
# predict_sweep end to end
# ----------------------------------------------------------------------
def _assert_curve_close(prediction, full_means, tolerance):
    for label, value in prediction.means().items():
        reference = full_means[label]
        assert value == pytest.approx(reference, rel=tolerance), \
            f"{label}: predicted {value} vs simulated {reference}"


def test_predict_sweep_specjbb_reproduces_full_curve():
    runner = Runner(runs=2, base_seed=100)
    workload = _specjbb()
    full = runner.run(workload).means()
    prediction = runner.predict_sweep(workload, tolerance=0.20)
    # The budget the analytic sweep exists for: one third simulated.
    assert len(prediction.anchors) * 3 <= len(prediction.configs)
    assert prediction.fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert prediction.spot_checks  # the gate ran and passed
    assert prediction.max_spot_error <= 0.20
    _assert_curve_close(prediction, full, tolerance=0.20)


def test_predict_sweep_tpch_reproduces_full_curve():
    runner = Runner(runs=2, base_seed=100)
    workload = _tpch()
    full = runner.run(workload).means()
    prediction = runner.predict_sweep(workload, tolerance=0.10)
    assert len(prediction.anchors) * 3 <= len(prediction.configs)
    # The straggler axis makes the nine configs one smooth curve;
    # the fit must stay tight even though runtimes span ~8x.
    assert prediction.spot_checks
    assert prediction.max_spot_error <= 0.10
    _assert_curve_close(prediction, full, tolerance=0.10)


def test_predict_sweep_gate_raises_on_tight_tolerance():
    runner = Runner(runs=2, base_seed=100)
    with pytest.raises(PredictionGateError) as excinfo:
        runner.predict_sweep(_specjbb(), tolerance=1e-9)
    prediction = excinfo.value.prediction
    assert prediction is not None
    assert prediction.spot_checks
    assert prediction.max_spot_error > 1e-9


def test_predict_sweep_without_gate_simulates_only_anchors():
    cache = ResultCache()
    backend = SerialBackend(cache=cache)
    runner = Runner(runs=2, base_seed=100, backend=backend)
    prediction = runner.predict_sweep(_specjbb(), spot_checks=0)
    assert prediction.spot_checks == []
    assert prediction.simulated_configs == prediction.anchors
    assert backend.simulations_run == 2 * len(prediction.anchors)
    # Every non-anchor config is covered by the model instead.
    assert set(prediction.predicted) == \
        set(prediction.configs) - set(prediction.anchors)


def test_predict_sweep_anchor_runs_share_the_result_cache():
    cache = ResultCache()
    backend = SerialBackend(cache=cache)
    runner = Runner(runs=2, base_seed=100, backend=backend)
    workload = _specjbb()
    runner.predict_sweep(workload, spot_checks=1)
    after_predict = backend.simulations_run
    assert after_predict == 2 * 4  # 3 anchors + 1 spot check
    # A later full sweep reuses every simulated config for free.
    runner.run(workload)
    assert backend.simulations_run == after_predict + 2 * 5


def test_predict_sweep_rejects_bad_inputs():
    runner = Runner(runs=1, base_seed=100)
    with pytest.raises(ValueError, match="not in sweep"):
        runner.predict_sweep(_specjbb(), anchors=["9f-9s/2"])
    with pytest.raises(ValueError, match="tolerance"):
        runner.predict_sweep(_specjbb(), tolerance=0.0)
