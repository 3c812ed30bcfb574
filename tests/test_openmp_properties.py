"""Property-based tests for the OpenMP loop schedules.

Hypothesis generates loop shapes, team sizes, chunk sizes and throttle
storms and runs them across all nine machine configurations and both
scheduler families.  Whatever the partition:

* every iteration executes exactly once (tracked through the
  ``cycles_per_iteration`` callable, which the runtime evaluates once
  per executed index);
* the ``omp.*`` counters stay consistent (chunk counts) and the
  cycle-valued ones respect the conservation bound (⊆ busy);
* the byte-identity contract holds for ``static_weighted`` (the split
  read at loop entry) and ``dynamic`` (the schedule that rebalances
  under storms): sliced vs coalesced kernels and serial vs
  process-pool sweeps produce identical
  :meth:`~repro.metrics.RunMetrics.as_dict` payloads, clean and under
  throttle storms.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import System
from repro.faults import FaultSchedule
from repro.kernel import AsymmetryAwareScheduler, SymmetricScheduler
from repro.machine import Machine, STANDARD_CONFIG_LABELS
from repro.runtime.openmp import (
    Loop,
    LoopSchedule,
    OmpProgram,
    OmpTeam,
    Serial,
)
from repro.workloads.base import RunOptions
from repro.workloads.specomp import SpecOmpBenchmark

from tests.harness import assert_conservation

CONFIGS = st.sampled_from(list(STANDARD_CONFIG_LABELS))
SCHEDULERS = st.sampled_from([SymmetricScheduler,
                              AsymmetryAwareScheduler])
ALL_POLICIES = st.sampled_from(list(LoopSchedule))

#: Loop shapes: enough iterations that chunking is exercised, small
#: enough cycle counts to stay fast.
ITERATIONS = st.integers(min_value=0, max_value=96)
CYCLES_PER_ITER = st.floats(min_value=0.0, max_value=2e7)
CHUNKS = st.one_of(st.none(), st.integers(min_value=1, max_value=16))

#: Throttle-only storms (the ISSUE's fault regime for these loops;
#: offline events could strand a pinned team member forever).
STORM_SEEDS = st.integers(min_value=0, max_value=2**20)


def _storm(seed: int) -> FaultSchedule:
    return FaultSchedule.throttle_storm(
        seed=seed, duration=1.0, cores=range(4),
        events_per_second=40.0, recovery_mean=0.01)


def _system(config, scheduler=None, seed=0, coalesce=None):
    machine = Machine.from_label(config)
    factory = scheduler() if scheduler is not None else None
    return System(machine, seed=seed, scheduler=factory,
                  coalesce=coalesce)


class TestExactlyOnce:
    """Every iteration executes exactly once, whatever the split."""

    @settings(max_examples=40, deadline=None)
    @given(config=CONFIGS, scheduler=SCHEDULERS, policy=ALL_POLICIES,
           iterations=ITERATIONS, chunk=CHUNKS,
           storm_seed=st.one_of(st.none(), STORM_SEEDS))
    def test_all_iterations_execute_exactly_once(
            self, config, scheduler, policy, iterations, chunk,
            storm_seed):
        executed = Counter()

        def cycles_of(index):
            executed[index] += 1
            return 1e6 + index

        system = _system(config, scheduler)
        if storm_seed is not None:
            _storm(storm_seed).install(system)
        program = OmpProgram([
            Serial(1e5),
            Loop(iterations, cycles_of, schedule=policy, chunk=chunk),
        ], name="prop")
        team = OmpTeam(system)
        team.execute(program)
        assert executed == Counter(
            {index: 1 for index in range(iterations)})
        assert_conservation(system.run_metrics())


class TestCounterConsistency:
    """omp.* counter arithmetic holds under random partitions."""

    @settings(max_examples=40, deadline=None)
    @given(config=CONFIGS, scheduler=SCHEDULERS, policy=ALL_POLICIES,
           iterations=st.integers(min_value=32, max_value=96),
           chunk=CHUNKS, storm_seed=st.one_of(st.none(), STORM_SEEDS))
    def test_counters(self, config, scheduler, policy, iterations,
                      chunk, storm_seed):
        system = _system(config, scheduler)
        if storm_seed is not None:
            _storm(storm_seed).install(system)
        program = OmpProgram([
            Loop(iterations, 1e6, schedule=policy, chunk=chunk),
        ], name="prop")
        team = OmpTeam(system)
        team.execute(program)
        counters = system.counters.as_dict()
        chunks = counters.get("omp.chunks_dispatched", 0.0)
        if policy is LoopSchedule.STATIC:
            assert chunks == 0.0
        elif policy is LoopSchedule.STATIC_WEIGHTED:
            # One contiguous chunk per member with a non-empty range;
            # with >= 32 iterations over <= 4 threads at least one.
            assert 1.0 <= chunks <= team.n_threads
        else:
            # Dynamic/guided dispatch at least one chunk per
            # thread that found work; with iterations >= team size
            # there are at least team-size chunks to hand out unless a
            # single chunk covers several threads' shares.
            assert chunks >= 1.0
            if chunk is None and policy is not LoopSchedule.GUIDED:
                assert chunks >= min(iterations, team.n_threads)
        assert_conservation(system.run_metrics())


def _run_metrics_dict(config, policy, *, coalesce, scheduler,
                      storm_seed, seed=3):
    system = _system(config, scheduler, seed=seed, coalesce=coalesce)
    if storm_seed is not None:
        _storm(storm_seed).install(system)
    program = OmpProgram([
        Serial(2e5),
        Loop(72, 1.5e6, schedule=policy),
        Loop(48, 2.5e6, schedule=policy, nowait=True),
        Serial(1e5),
    ], name="identity")
    OmpTeam(system).execute(program)
    return system.run_metrics().as_dict()


@pytest.mark.parametrize("config", STANDARD_CONFIG_LABELS)
@pytest.mark.parametrize("policy", [LoopSchedule.STATIC_WEIGHTED,
                                    LoopSchedule.DYNAMIC])
@pytest.mark.parametrize("scheduler", [SymmetricScheduler,
                                       AsymmetryAwareScheduler])
@pytest.mark.parametrize("storm_seed", [None, 7])
def test_sliced_vs_coalesced_identity(config, policy, scheduler,
                                      storm_seed):
    """Macro-slice replay must not change a single byte of the books."""
    sliced = _run_metrics_dict(config, policy, coalesce=False,
                               scheduler=scheduler,
                               storm_seed=storm_seed)
    coalesced = _run_metrics_dict(config, policy, coalesce=True,
                                  scheduler=scheduler,
                                  storm_seed=storm_seed)
    assert sliced == coalesced


@pytest.mark.parametrize("policy", ["static_weighted", "dynamic"])
@pytest.mark.parametrize("storm", [False, True])
def test_serial_vs_pool_identity(policy, storm):
    """A process-pool sweep is byte-identical to the serial sweep."""
    from repro.experiments.parallel import make_backend
    from repro.experiments.runner import Runner

    options = RunOptions()
    if storm:
        options = RunOptions(faults=FaultSchedule.throttle_storm(
            seed=9, duration=2.0, cores=range(4),
            events_per_second=25.0, recovery_mean=0.02))

    def sweep(jobs):
        backend = make_backend(jobs, options=options)
        try:
            runner = Runner(configs=("4f-0s", "2f-2s/8", "0f-4s/8"),
                            runs=2, backend=backend)
            sweep = runner.run(
                SpecOmpBenchmark("swim", omp_schedule=policy))
        finally:
            backend.shutdown()
        return {
            label: [run.run_metrics.as_dict()
                    for run in sweep.results[label]]
            for label in sweep.configs
        }

    assert sweep(None) == sweep(2)
