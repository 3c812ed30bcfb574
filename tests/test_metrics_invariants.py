"""Invariant tests of the observability layer (:mod:`repro.metrics`).

The headline property: on every one of the paper's nine machine
configurations, under both the stock and the asymmetry-aware
scheduler, the books balance — per core, ``busy + idle == duration``
and retired cycles equal the cycles threads account for, even when the
snapshot is taken mid-run with slices still in flight.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import System
from repro.kernel import (
    AsymmetryAwareScheduler,
    Compute,
    SimThread,
    Sleep,
    SymmetricScheduler,
    YieldCPU,
)
from repro.machine import STANDARD_CONFIG_LABELS
from repro.metrics import CounterBag, RunMetrics
from repro.workloads.specjbb import SpecJBB
from repro.workloads.tpch import TpchQuery
from tests import harness

SCHEDULERS = {
    "stock": None,
    "asym": AsymmetryAwareScheduler,
}


def _mixed_body(cycles_list, sleepy):
    for cycles in cycles_list:
        yield Compute(cycles)
        if sleepy:
            yield Sleep(0.001)
        else:
            yield YieldCPU()


def _run_panel_system(config, scheduler_cls, seed, *categories):
    system = System.build(
        config, seed=seed,
        scheduler=scheduler_cls() if scheduler_cls else None)
    system.sim.tracer.enable(*categories)
    for index in range(4):
        cycles = [2e7 * (index + 1), 5e6]
        system.kernel.spawn(
            SimThread(f"t{index}", _mixed_body(cycles, index % 2 == 0)))
    system.run()
    return system


# ----------------------------------------------------------------------
# The headline property: nine configs x seed panel x both schedulers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("config", STANDARD_CONFIG_LABELS)
def test_cycle_conservation_every_config(config, scheduler):
    for seed in (0, 7, 1234):
        system = _run_panel_system(config, SCHEDULERS[scheduler], seed,
                                   "sched")
        metrics = system.run_metrics()
        harness.assert_conservation(metrics)
        assert metrics.config == config
        assert metrics.threads_finished == metrics.threads_spawned == 4
        assert harness.trace_consistency_errors(
            metrics, system.sim.tracer.records("sched")) == []


@settings(max_examples=20, deadline=None)
@given(config=st.sampled_from(list(STANDARD_CONFIG_LABELS)),
       scheduler=st.sampled_from([None, SymmetricScheduler,
                                  AsymmetryAwareScheduler]),
       seed=st.integers(0, 2**16),
       workloads=st.lists(
           st.lists(st.floats(min_value=0, max_value=5e8),
                    min_size=1, max_size=3),
           min_size=1, max_size=5),
       sleepy=st.booleans())
def test_conservation_and_trace_agree(config, scheduler, seed,
                                      workloads, sleepy):
    """Counters conserve cycles AND agree with an independent trace."""
    system = System.build(config, seed=seed,
                          scheduler=scheduler() if scheduler else None)
    system.sim.tracer.enable("sched")
    for index, cycles_list in enumerate(workloads):
        system.kernel.spawn(
            SimThread(f"t{index}", _mixed_body(cycles_list, sleepy)))
    system.run()
    metrics = system.run_metrics()
    harness.assert_conservation(metrics)
    errors = harness.trace_consistency_errors(
        metrics, system.sim.tracer.records("sched"))
    assert errors == []


def test_midrun_snapshot_conserves():
    """A snapshot at a horizon, with daemons still running and slices
    in flight, must still balance the books."""

    def spinner():
        while True:
            yield Compute(1e7)
            yield Sleep(0.0005)

    system = System.build("2f-2s/8", seed=3)
    for index in range(6):
        system.kernel.spawn(
            SimThread(f"spin{index}", spinner(), daemon=True))
    system.run(until=0.05)
    metrics = system.run_metrics()
    assert metrics.duration == pytest.approx(0.05)
    harness.assert_conservation(metrics)
    assert metrics.total_busy_seconds > 0


def test_fast_cores_never_idle_under_asym_policy():
    """Paper §3.1.1 via the harness watcher, on an asymmetric config."""
    system = System.build("1f-3s/8", seed=21,
                          scheduler=AsymmetryAwareScheduler())
    watcher = harness.watch_fast_cores(system)
    for index in range(5):
        system.kernel.spawn(
            SimThread(f"t{index}", _mixed_body([3e8], False)))
    system.run()
    watcher.assert_clean()
    harness.assert_conservation(system.run_metrics())


# ----------------------------------------------------------------------
# Workload integration: metrics ride on every RunResult
# ----------------------------------------------------------------------
def test_specjbb_attaches_conserving_metrics_and_counters():
    workload = SpecJBB(warehouses=2, measurement_seconds=0.4,
                       warmup_seconds=0.1)
    result = workload.run_once("2f-2s/8", seed=5)
    metrics = result.run_metrics
    assert metrics is not None
    harness.assert_conservation(metrics)
    assert metrics.scheduler == "symmetric"
    assert metrics.counters.get("specjbb.transactions", 0) > 0
    # The GC instrumentation records where collection cycles finish —
    # the paper's decisive mechanism for Figure 1's variance.
    gc_cycles = (metrics.counters.get("gc.cycles_on_fast_core", 0)
                 + metrics.counters.get("gc.cycles_on_slow_core", 0))
    assert gc_cycles == metrics.counters.get("gc.collections", 0)


def test_tpch_dispatch_counters_split_by_speed_class():
    workload = TpchQuery(3, parallel_degree=4, optimization_degree=7)
    result = workload.run_once("2f-2s/8", seed=9)
    metrics = result.run_metrics
    assert metrics is not None
    harness.assert_conservation(metrics)
    counters = metrics.counters
    assert counters["db2.queries"] == 1
    dispatched = counters.get("db2.dispatch.fast", 0) \
        + counters.get("db2.dispatch.slow", 0)
    assert dispatched > 0
    # Round-robin over 2 fast + 2 slow cores splits pieces evenly.
    assert counters.get("db2.dispatch.fast", 0) == \
        counters.get("db2.dispatch.slow", 0)


# ----------------------------------------------------------------------
# RunMetrics mechanics: serialization, merge, counters
# ----------------------------------------------------------------------
def _sample_metrics(seed=13):
    system = _run_panel_system("2f-2s/8", AsymmetryAwareScheduler, seed)
    return system.run_metrics()


def test_json_round_trip_is_lossless():
    metrics = _sample_metrics()
    clone = RunMetrics.from_json(metrics.to_json())
    assert clone.to_json() == metrics.to_json()
    assert clone.as_dict() == metrics.as_dict()


def test_to_json_is_deterministic():
    assert _sample_metrics().to_json(indent=2) == \
        _sample_metrics().to_json(indent=2)
    parsed = json.loads(_sample_metrics().to_json())
    assert list(parsed) == sorted(parsed)


def test_merge_sums_and_preserves_conservation():
    a, b = _sample_metrics(1), _sample_metrics(2)
    merged = RunMetrics.merge([a, b])
    assert merged.runs == 2
    assert merged.duration == pytest.approx(a.duration + b.duration)
    assert merged.context_switches == \
        a.context_switches + b.context_switches
    assert merged.core(0).busy_seconds == pytest.approx(
        a.core(0).busy_seconds + b.core(0).busy_seconds)
    harness.assert_conservation(merged)


def test_merge_order_is_deterministic_but_config_mixes():
    asym = _sample_metrics()
    system = _run_panel_system("4f-0s", None, 13)
    other = system.run_metrics()
    merged = RunMetrics.merge([asym, other])
    assert merged.config == "mixed"
    assert merged.scheduler == "mixed"
    # Same items, same order, byte-identical result.
    again = RunMetrics.merge([_sample_metrics(), other])
    assert merged.to_json() == again.to_json()


def test_merge_rejects_empty():
    with pytest.raises(ValueError):
        RunMetrics.merge([])


def test_counter_bag_basics():
    bag = CounterBag()
    assert len(bag) == 0 and "x" not in bag
    bag.incr("x")
    bag.incr("x", 2.5)
    bag.incr("y")
    assert bag.get("x") == 3.5
    assert bag.get("missing", -1.0) == -1.0
    assert "x" in bag and len(bag) == 2
    assert list(bag.as_dict()) == ["x", "y"]


def test_conservation_errors_reports_cooked_books():
    metrics = _sample_metrics()
    metrics.cores[0].busy_seconds += 1.0
    errors = metrics.conservation_errors()
    assert any("core 0" in error for error in errors)
