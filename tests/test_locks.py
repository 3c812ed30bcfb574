"""Unit tests of the lock-primitive layer (DESIGN.md §11).

Covers the taxonomy in :mod:`repro.kernel.sync` — blocking FIFO,
test-and-set spin, MCS-queued spin and the asymmetry-aware mutex —
plus the per-kernel naming of anonymous sync objects, the ``lock.*``
observability counters and the interaction with fault injection.
"""

import pytest

from repro import System
from repro.errors import SchedulingError
from repro.faults import FaultSchedule, ThrottleEvent
from repro.kernel import (
    AsymmetryAwareScheduler,
    Barrier,
    CondVar,
    Compute,
    Lock,
    Mutex,
    Semaphore,
    SimThread,
    ThreadState,
    Unlock,
    Wait,
)
from repro.kernel.sync import (
    LOCK_KINDS,
    AsymMutex,
    MCSMutex,
    SpinMutex,
    make_lock,
)
from repro.workloads.base import RunOptions
from repro.workloads.lockstress import LockStress

from tests.harness import assert_conservation


def locker_body(lock, grants, label, critical=2e5, outside=1e5,
                iterations=1, requests=None):
    """Standard worker: outside work, then lock/critical/unlock.

    Appends ``label`` to ``requests`` immediately before issuing the
    Lock (the kernel executes it in the same scheduling step, so the
    list order is the lock-request order) and to ``grants`` once the
    acquire completes.
    """
    for _ in range(iterations):
        if outside > 0:
            yield Compute(outside)
        if requests is not None:
            requests.append(label)
        yield Lock(lock)
        grants.append(label)
        yield Compute(critical)
        yield Unlock(lock)


def run_population(lock, n_threads=6, config="2f-2s/8", seed=3,
                   scheduler=None, iterations=2, requests=None,
                   **body_kw):
    """Spawn ``n_threads`` lockers; return (system, grant order)."""
    system = System.build(config, seed=seed, scheduler=scheduler)
    grants = []
    for index in range(n_threads):
        system.kernel.spawn(SimThread(
            f"w{index}",
            locker_body(lock, grants, index, iterations=iterations,
                        requests=requests,
                        # Stagger arrivals so the queue forms in a
                        # known order.
                        outside=1e5 * (index + 1), **body_kw)))
    system.run()
    return system, grants


class TestMakeLock:
    def test_kinds_map_to_classes(self):
        assert type(make_lock("fifo")) is Mutex
        assert type(make_lock("spin")) is SpinMutex
        assert type(make_lock("mcs")) is MCSMutex
        assert type(make_lock("asym")) is AsymMutex

    def test_registry_is_complete(self):
        for kind in LOCK_KINDS:
            assert make_lock(kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchedulingError, match="unknown lock kind"):
            make_lock("ticket")

    def test_spin_check_cycles_must_be_positive(self):
        with pytest.raises(SchedulingError):
            SpinMutex(spin_check_cycles=0)

    def test_asym_bypass_cap_must_be_positive(self):
        with pytest.raises(SchedulingError):
            AsymMutex(max_bypass=0)


class TestPerKernelNaming:
    """Anonymous sync objects get kernel-scoped names.

    Regression: the counters used to be class-level, so every fresh
    ``System`` inherited whatever the previous simulations had already
    consumed — run order changed object names (and with them traces
    and deadlock reports).
    """

    def test_fresh_systems_reuse_the_same_names(self):
        names = []
        for seed in (1, 2):
            lock = Mutex()
            system, _ = run_population(lock, n_threads=2, seed=seed)
            names.append(lock.name)
        assert names == ["mutex-1", "mutex-1"]

    def test_names_follow_simulation_order(self):
        system = System.build("4f-0s", seed=0)
        first, second = Mutex(), Mutex()

        def body():
            # ``second`` is touched first, so it gets the first name.
            yield Lock(second)
            yield Unlock(second)
            yield Lock(first)
            yield Unlock(first)

        system.kernel.spawn(SimThread("t", body()))
        system.run()
        assert second.name == "mutex-1"
        assert first.name == "mutex-2"

    def test_explicit_names_are_kept(self):
        lock = Mutex("txlog")
        run_population(lock, n_threads=2)
        assert lock.name == "txlog"

    def test_other_sync_kinds_have_scoped_prefixes(self):
        system = System.build("4f-0s", seed=0)
        barrier = Barrier(2)
        cond = CondVar()
        mutex = Mutex()
        sem = Semaphore(0)
        assert barrier.name == ""
        assert cond._auto_prefix == "cond"
        assert sem._auto_prefix == "sem"
        assert mutex._auto_prefix == "mutex"
        assert barrier._auto_prefix == "barrier"


class TestHandoffOrder:
    def test_fifo_grants_in_arrival_order(self):
        lock = make_lock("fifo")
        requests = []
        _, grants = run_population(lock, config="4f-0s", iterations=3,
                                   requests=requests)
        assert grants == requests

    def test_mcs_is_fifo_despite_spinning(self):
        lock = make_lock("mcs")
        requests = []
        _, grants = run_population(lock, config="4f-0s", n_threads=4,
                                   iterations=3, requests=requests)
        assert grants == requests

    def test_spin_lock_allows_barging(self):
        """A fresh arrival may take a free test-and-set lock even
        while earlier waiters are still mid-spin-burst."""
        lock = make_lock("spin", spin_check_cycles=5e5)
        system = System.build("4f-0s", seed=0)
        grants = []
        system.kernel.spawn(SimThread(
            "holder", locker_body(lock, grants, "holder",
                                  critical=1e6, outside=0)))
        system.kernel.spawn(SimThread(
            "spinner", locker_body(lock, grants, "spinner",
                                   critical=1e5, outside=1e5)))
        # Arrives just after the holder releases, while the spinner's
        # long re-check burst is still draining: barges in.
        system.kernel.spawn(SimThread(
            "barger", locker_body(lock, grants, "barger",
                                  critical=1e5, outside=1.05e6)))
        system.run()
        assert grants == ["holder", "barger", "spinner"]
        assert lock.owner is None

    def test_relock_raises(self):
        lock = make_lock("fifo")
        system = System.build("4f-0s", seed=0)

        def body():
            yield Lock(lock)
            yield Lock(lock)

        system.kernel.spawn(SimThread("t", body()))
        with pytest.raises(SchedulingError, match="re-locking"):
            system.run()

    def test_unlock_by_non_owner_raises(self):
        lock = make_lock("fifo")
        system = System.build("4f-0s", seed=0)

        def body():
            yield Unlock(lock)

        system.kernel.spawn(SimThread("t", body()))
        with pytest.raises(SchedulingError, match="unlocking"):
            system.run()

    def test_condvar_rejects_spin_mutex(self):
        lock = make_lock("spin")
        cond = CondVar()
        system = System.build("4f-0s", seed=0)

        def body():
            yield Lock(lock)
            yield Wait(cond, lock)

        system.kernel.spawn(SimThread("t", body()))
        with pytest.raises(SchedulingError, match="blocking mutex"):
            system.run()


class TestAsymMutex:
    def test_handoff_prefers_fast_core_waiters(self):
        """On the asymmetric machine the asym lock funnels handoffs
        towards fast-core waiters; FIFO spreads them by arrival."""
        asym = make_lock("asym", migrate=False)
        system, _ = run_population(asym, n_threads=8, iterations=4)
        counters = system.run_metrics().counters
        to_fast = counters.get("lock.handoffs.fast_to_fast", 0.0) \
            + counters.get("lock.handoffs.slow_to_fast", 0.0)
        to_slow = counters.get("lock.handoffs.fast_to_slow", 0.0) \
            + counters.get("lock.handoffs.slow_to_slow", 0.0)
        assert to_fast > to_slow

    def test_bypass_cap_bounds_skips(self):
        """No waiter is ever bypassed more than ``max_bypass`` times
        in a row; everyone finishes."""
        asym = make_lock("asym", max_bypass=2, migrate=False)
        system, grants = run_population(asym, n_threads=8,
                                        iterations=3)
        for thread in system.kernel.threads:
            assert thread.state is ThreadState.TERMINATED
            assert thread.lock_bypasses <= 2
        assert len(grants) == 8 * 3

    def test_migration_books_counter(self):
        asym = make_lock("asym", migrate=True)
        system, _ = run_population(asym, n_threads=8, iterations=4)
        migrations = system.run_metrics().counters.get(
            "lock.crit_migrations")
        assert migrations is not None and migrations > 0

    def test_migrate_false_never_migrates(self):
        asym = make_lock("asym", migrate=False)
        system, _ = run_population(asym, n_threads=8, iterations=4)
        assert system.run_metrics().counters.get(
            "lock.crit_migrations") is None


class TestCounters:
    def test_acquisitions_and_contention_books(self):
        lock = make_lock("fifo")
        system, grants = run_population(lock, iterations=2)
        counters = system.run_metrics().counters
        assert counters.get("lock.acquisitions") == len(grants) \
            == lock.acquisitions
        assert counters.get("lock.contended") == lock.contention_count
        assert counters.get("lock.max_queue_depth") \
            == float(lock.max_queue_depth)

    def test_handoffs_bounded_by_acquisitions(self):
        lock = make_lock("fifo")
        system, _ = run_population(lock, iterations=2)
        counters = system.run_metrics().counters
        handoffs = sum(value for name, value in counters.items()
                       if name.startswith("lock.handoffs."))
        assert 0 < handoffs <= counters.get("lock.acquisitions")

    def test_spin_cycles_conservation(self):
        """Spin-wait cycles are booked and stay within busy cycles."""
        result = LockStress(n_threads=6, lock_kind="spin",
                            duration=0.2).run_once("2f-2s/8", seed=3)
        metrics = result.run_metrics
        assert_conservation(metrics)
        spin = metrics.counters.get("lock.spin_cycles")
        assert spin is not None and spin > 0
        busy = sum(core.busy_cycles for core in metrics.cores)
        assert spin <= busy

    def test_blocking_locks_book_no_spin_cycles(self):
        result = LockStress(n_threads=6, lock_kind="fifo",
                            duration=0.2).run_once("2f-2s/8", seed=3)
        assert result.run_metrics.counters.get(
            "lock.spin_cycles") is None


class TestTracing:
    def test_block_spans_carry_holder_details(self):
        lock = make_lock("fifo", "hot")
        system = System.build("2f-2s/8", seed=3)
        system.sim.tracer.enable("block")
        grants = []
        for index in range(4):
            system.kernel.spawn(SimThread(
                f"w{index}", locker_body(lock, grants, index,
                                         critical=5e5,
                                         outside=1e5 * (index + 1))))
        system.run()
        waits = [span for span in system.sim.tracer.spans("block")
                 if span.name == "lock hot"]
        assert waits, "contended FIFO acquire must open a block span"
        for span in waits:
            details = dict(span.details)
            assert details["holder"].startswith("w")
            assert details["holder_class"] in ("fast", "slow")


class TestFaultInterop:
    def test_throttled_holder_mid_critical_section(self):
        """A throttle landing on the holder's core mid-critical-
        section re-splits the slice and the books stay exact."""
        for kind in LOCK_KINDS:
            lock = make_lock(kind)
            system = System.build("2f-2s/8", seed=3)
            FaultSchedule([
                ThrottleEvent(0.001, 0, 0.25, duration=0.01),
                ThrottleEvent(0.004, 1, 0.125, duration=0.02),
            ], label="holder-throttle").install(system)
            grants = []
            for index in range(6):
                system.kernel.spawn(SimThread(
                    f"w{index}",
                    locker_body(lock, grants, index, critical=2e6,
                                outside=1e5 * (index + 1),
                                iterations=2)))
            system.run()
            assert len(grants) == 12, kind
            assert_conservation(system.run_metrics())

    def test_lock_storm_conservation_all_kinds(self):
        storm = FaultSchedule.throttle_storm(
            seed=7, duration=0.2, cores=range(4))
        for kind in LOCK_KINDS:
            workload = LockStress(n_threads=8, lock_kind=kind,
                                  duration=0.2)
            result = workload.run_once("2f-2s/8", seed=7,
                                       options=RunOptions(faults=storm))
            assert_conservation(result.run_metrics)
            assert result.metric("sections") > 0


class TestSchedulerInterplay:
    def test_asym_scheduler_runs_every_kind(self):
        for kind in LOCK_KINDS:
            result = LockStress(n_threads=6, lock_kind=kind,
                                duration=0.1).run_once(
                "1f-3s/8", seed=5,
                scheduler_factory=AsymmetryAwareScheduler)
            assert result.metric("sections") > 0
            assert_conservation(result.run_metrics)

    def test_lockstress_validates_inputs(self):
        with pytest.raises(ValueError):
            LockStress(n_threads=0)
        with pytest.raises(ValueError):
            LockStress(lock_kind="ticket")
        with pytest.raises(ValueError):
            LockStress(duration=0.0)
