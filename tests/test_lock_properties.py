"""Property-based and differential tests of the lock layer.

Random acquire/release/fault interleavings over every machine
configuration, both kernel schedulers and the spin/mcs/asym lock
kinds, checking the invariants DESIGN.md §11 promises:

* every thread terminates — no lost wakeups, no starvation (the asym
  kind's bypass cap is the fairness backstop);
* FIFO-ordered kinds (``fifo``, ``mcs``) grant in lock-request order;
* spin-wait cycles are conserved: booked once, bounded by busy cycles;
* the whole observable surface is byte-identical sliced vs coalesced
  and serial vs process-pool on lock-heavy runs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import System
from repro.experiments.parallel import (
    ProcessPoolBackend,
    RunTask,
    SerialBackend,
)
from repro.faults import FaultSchedule
from repro.kernel import (
    AsymmetryAwareScheduler,
    Compute,
    Lock,
    SimThread,
    SymmetricScheduler,
    ThreadState,
    Unlock,
)
from repro.kernel.sync import make_lock
from repro.machine import STANDARD_CONFIG_LABELS
from repro.workloads.base import RunOptions
from repro.workloads.lockstress import LockStress

from tests.harness import assert_conservation

CONFIGS = st.sampled_from(list(STANDARD_CONFIG_LABELS))
SCHEDULERS = st.sampled_from([SymmetricScheduler,
                              AsymmetryAwareScheduler])
KINDS = st.sampled_from(["spin", "mcs", "asym"])
FIFO_KINDS = st.sampled_from(["fifo", "mcs"])

#: Per-thread (outside, critical, iterations) work descriptions.
WORK = st.tuples(st.floats(min_value=0, max_value=2e6),
                 st.floats(min_value=1e3, max_value=1e6),
                 st.integers(1, 3))
POPULATION = st.lists(WORK, min_size=2, max_size=6)


def _locker(lock, outside, critical, iterations, requests, grants,
            label):
    for _ in range(iterations):
        if outside > 0:
            yield Compute(outside)
        requests.append(label)
        yield Lock(lock)
        grants.append(label)
        yield Compute(critical)
        yield Unlock(lock)


def _run_interleaving(config, scheduler, kind, seed, population,
                      stormy):
    system = System.build(config, seed=seed, scheduler=scheduler())
    if stormy:
        FaultSchedule.throttle_storm(
            seed=seed, duration=0.05, cores=range(4),
            events_per_second=80.0, recovery_mean=0.005,
        ).install(system)
    lock = make_lock(kind)
    requests, grants = [], []
    for index, (outside, critical, iterations) in enumerate(population):
        system.kernel.spawn(SimThread(
            f"w{index}", _locker(lock, outside, critical, iterations,
                                 requests, grants, index)))
    system.run()
    return system, lock, requests, grants


@settings(max_examples=30, deadline=None)
@given(config=CONFIGS, scheduler=SCHEDULERS, kind=KINDS,
       seed=st.integers(0, 2**16), population=POPULATION,
       stormy=st.booleans())
def test_no_lost_wakeups_and_conservation(config, scheduler, kind,
                                          seed, population, stormy):
    """All threads finish, every critical section ran, books balance."""
    system, lock, requests, grants = _run_interleaving(
        config, scheduler, kind, seed, population, stormy)
    expected = sum(iterations for _, _, iterations in population)
    assert len(grants) == len(requests) == expected
    assert lock.owner is None
    assert not lock.waiters
    for thread in system.kernel.threads:
        assert thread.state is ThreadState.TERMINATED
        assert thread.spin_lock is None
    metrics = system.run_metrics()
    assert_conservation(metrics)
    spin = metrics.counters.get("lock.spin_cycles")
    if lock.spins and lock.contention_count:
        assert spin is None or spin >= 0.0
    else:
        busy = sum(core.busy_cycles for core in metrics.cores)
        assert spin is None or spin <= busy


@settings(max_examples=30, deadline=None)
@given(config=CONFIGS, scheduler=SCHEDULERS, kind=FIFO_KINDS,
       seed=st.integers(0, 2**16), population=POPULATION,
       stormy=st.booleans())
def test_fifo_kinds_grant_in_request_order(config, scheduler, kind,
                                           seed, population, stormy):
    """``fifo`` and ``mcs`` locks are handed off first-come-first-
    served under any interleaving, scheduler and fault storm."""
    _, _, requests, grants = _run_interleaving(
        config, scheduler, kind, seed, population, stormy)
    assert grants == requests


@settings(max_examples=20, deadline=None)
@given(config=CONFIGS, scheduler=SCHEDULERS,
       seed=st.integers(0, 2**16), population=POPULATION,
       max_bypass=st.integers(1, 4), stormy=st.booleans())
def test_asym_bypass_cap_is_respected(config, scheduler, seed,
                                      population, max_bypass, stormy):
    """No waiter is ever skipped more than ``max_bypass`` times
    between grants (the starvation backstop)."""
    system = System.build(config, seed=seed, scheduler=scheduler())
    if stormy:
        FaultSchedule.throttle_storm(
            seed=seed, duration=0.05, cores=range(4),
            events_per_second=80.0, recovery_mean=0.005,
        ).install(system)
    lock = make_lock("asym", max_bypass=max_bypass)
    requests, grants = [], []
    observed = []

    def watched(index, outside, critical, iterations):
        for _ in range(iterations):
            if outside > 0:
                yield Compute(outside)
            requests.append(index)
            yield Lock(lock)
            observed.append(
                system.kernel.threads[index].lock_bypasses)
            grants.append(index)
            yield Compute(critical)
            yield Unlock(lock)

    for index, (outside, critical, iterations) in enumerate(population):
        system.kernel.spawn(SimThread(
            f"w{index}", watched(index, outside, critical,
                                 iterations)))
    system.run()
    assert len(grants) == len(requests)
    assert all(skips <= max_bypass for skips in observed)


# ----------------------------------------------------------------------
# Differential harness: the byte-identity contracts on lock-heavy runs
# ----------------------------------------------------------------------
def _stress(config_index: int) -> LockStress:
    """A small lock-heavy run; the kind rotates with the config so the
    matrix covers every lock kind without tripling the run count."""
    kind = ("asym", "mcs", "spin")[config_index % 3]
    return LockStress(n_threads=6, lock_kind=kind, duration=0.06,
                      outside_cycles=2e5, critical_cycles=6e4)


@pytest.mark.parametrize("scheduler_name", ["stock", "asym"])
@pytest.mark.parametrize("config", STANDARD_CONFIG_LABELS)
def test_sliced_vs_coalesced_byte_identity(config, scheduler_name):
    """Coalescing must be invisible on lock-heavy runs — spin bursts,
    macro absorption on contended acquires and handoff wakeups
    included — for every config and scheduler."""
    index = list(STANDARD_CONFIG_LABELS).index(config)
    factory = {"stock": SymmetricScheduler,
               "asym": AsymmetryAwareScheduler}[scheduler_name]

    def observed(coalesce):
        return _stress(index).run_once(
            config, seed=17, scheduler_factory=factory,
            options=RunOptions(coalesce=coalesce))

    sliced = observed(False)
    coalesced = observed(True)
    assert coalesced.run_metrics.to_json() == sliced.run_metrics.to_json()
    assert coalesced.metrics == sliced.metrics


def test_serial_vs_pool_byte_identity_lock_heavy():
    """A lock-heavy sweep through the process pool is bit-identical
    to the serial backend across all 9 configs x 2 schedulers."""
    def tasks():
        return [
            RunTask(_stress(index), config, 23, factory)
            for index, config in enumerate(STANDARD_CONFIG_LABELS)
            for factory in (None, AsymmetryAwareScheduler)
        ]

    serial = SerialBackend().execute(tasks())
    pooled = ProcessPoolBackend(jobs=2).execute(tasks())
    assert [r.run_metrics.to_json() for r in serial] \
        == [r.run_metrics.to_json() for r in pooled]
    assert [r.metrics for r in serial] == [r.metrics for r in pooled]
