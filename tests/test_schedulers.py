"""Scheduler policy tests: stock symmetric vs. asymmetry-aware."""

import pytest

from repro import System
from repro.errors import SchedulingError
from repro.kernel import (
    AsymmetryAwareScheduler,
    Compute,
    GetCore,
    SimThread,
    Sleep,
    SymmetricScheduler,
)
from repro.machine import DEFAULT_FREQUENCY_HZ

ONE_SECOND_FAST = DEFAULT_FREQUENCY_HZ


def spin(cycles):
    yield Compute(cycles)


def build(config, seed=0, asym=False):
    scheduler = AsymmetryAwareScheduler() if asym else SymmetricScheduler()
    return System.build(config, seed=seed, scheduler=scheduler)


class TestSymmetricScheduler:
    def test_spreads_threads_across_idle_cores(self):
        system = build("4f-0s")
        threads = [system.kernel.start(f"t{i}", spin(ONE_SECOND_FAST))
                   for i in range(4)]
        system.run()
        used = {t.last_core for t in threads}
        assert len(used) == 4  # one thread per core

    def test_preemption_timeshares_one_core(self):
        system = build("4f-0s")
        affinity = frozenset([0])
        a = SimThread("a", spin(ONE_SECOND_FAST), affinity=affinity)
        b = SimThread("b", spin(ONE_SECOND_FAST), affinity=affinity)
        system.kernel.spawn(a)
        system.kernel.spawn(b)
        system.run()
        # Round-robin at quantum granularity: both finish near t=2 and
        # neither starves (b finishes within a quantum of a).
        assert a.preemptions > 10
        assert abs(a.finish_time - b.finish_time) <= \
            2 * system.kernel.scheduler.quantum

    def test_idle_core_steals_queued_work(self):
        system = build("4f-0s")
        # Two pinned-looking threads on core 0 via placement: force by
        # spawning both while core 0 is the only loaded core.
        a = SimThread("a", spin(ONE_SECOND_FAST), affinity=frozenset([0]))
        b = SimThread("b", spin(ONE_SECOND_FAST), affinity=frozenset([0, 1]))
        system.kernel.spawn(a)
        system.kernel.spawn(b)
        system.run()
        # b is allowed on core 1, which is idle: the steal must move it.
        assert b.last_core == 1
        assert b.finish_time == pytest.approx(1.0)

    def test_speed_blind_placement_varies_across_seeds(self):
        # On an asymmetric machine, a single thread placed on an idle
        # machine lands on a random core; across seeds it must hit both
        # fast and slow cores (the stock scheduler is speed-agnostic).
        finishes = set()
        for seed in range(12):
            system = build("2f-2s/8", seed=seed)
            thread = system.kernel.start("t", spin(ONE_SECOND_FAST))
            system.run()
            finishes.add(round(thread.finish_time, 3))
        assert len(finishes) > 1, "placement never varied"
        assert 1.0 in finishes and 8.0 in finishes

    def test_deterministic_given_seed(self):
        def run_once():
            system = build("2f-2s/8", seed=7)
            threads = [system.kernel.start(f"t{i}", spin(ONE_SECOND_FAST))
                       for i in range(6)]
            system.run()
            return [t.finish_time for t in threads]
        assert run_once() == run_once()

    def test_symmetric_machine_performance_is_seed_independent(self):
        # The core sanity check behind the paper's baseline: placement
        # cannot matter when all cores are equal.
        results = set()
        for seed in range(5):
            system = build("0f-4s/4", seed=seed)
            threads = [system.kernel.start(f"t{i}", spin(ONE_SECOND_FAST))
                       for i in range(8)]
            system.run()
            results.add(round(max(t.finish_time for t in threads), 9))
        assert len(results) == 1

    def test_sticky_wakeup_returns_to_last_core(self):
        observed = []

        def body():
            yield Compute(1000)
            observed.append((yield GetCore()))
            yield Sleep(0.5)
            yield Compute(1000)
            observed.append((yield GetCore()))

        system = build("4f-0s", seed=3)
        system.kernel.start("t", body())
        system.run()
        assert observed[0] == observed[1]


class TestAsymmetryAwareScheduler:
    def test_places_on_fastest_idle_core(self):
        for seed in range(8):
            system = build("2f-2s/8", seed=seed, asym=True)
            thread = system.kernel.start("t", spin(ONE_SECOND_FAST))
            system.run()
            assert thread.finish_time == pytest.approx(1.0), \
                f"seed {seed} placed on a slow core"

    def test_pull_migration_rescues_thread_from_slow_core(self):
        # Fill the two fast cores, force a thread onto a slow core,
        # then free a fast core: the slow-core thread must be pulled.
        system = build("2f-2s/8", seed=0, asym=True)
        short = [system.kernel.start(f"fast{i}", spin(ONE_SECOND_FAST / 10))
                 for i in range(2)]
        victim = system.kernel.start("victim", spin(ONE_SECOND_FAST))
        system.run()
        assert system.kernel.preempt_pulls >= 1
        # 0.1s on slow core (retires 1/80 of work) then pulled to fast:
        # far faster than the 8s a stranded run would take.
        assert victim.finish_time < 1.5
        del short

    def test_fast_cores_never_idle_while_slow_core_queued(self):
        # Six threads on 2f-2s/8: fast cores must stay busy to the end.
        system = build("2f-2s/8", seed=1, asym=True)
        threads = [system.kernel.start(f"t{i}", spin(ONE_SECOND_FAST / 2))
                   for i in range(6)]
        end = system.run()
        fast_busy = [core.busy_time for core in system.machine.cores[:2]]
        for busy in fast_busy:
            assert busy == pytest.approx(end, rel=0.05)
        del threads

    def test_asymmetric_placement_is_stable_across_seeds(self):
        # The fix's purpose: identical behaviour regardless of seed.
        finishes = set()
        for seed in range(8):
            system = build("2f-2s/8", seed=seed, asym=True)
            threads = [system.kernel.start(f"t{i}", spin(ONE_SECOND_FAST))
                       for i in range(2)]
            system.run()
            finishes.add(round(max(t.finish_time for t in threads), 6))
        assert len(finishes) == 1

    def test_no_pull_between_equal_speed_cores(self):
        system = build("4f-0s", seed=0, asym=True)
        for i in range(8):
            system.kernel.start(f"t{i}", spin(ONE_SECOND_FAST / 4))
        system.run()
        assert system.kernel.preempt_pulls == 0

    def test_respects_affinity_when_pulling(self):
        # A thread pinned to a slow core must never be pulled off it.
        system = build("2f-2s/8", seed=0, asym=True)
        pinned = SimThread("pinned", spin(ONE_SECOND_FAST / 10),
                           affinity=frozenset([3]))
        system.kernel.spawn(pinned)
        system.run()
        assert pinned.last_core == 3
        assert pinned.migrations == 0

    def test_quantum_validation(self):
        with pytest.raises(SchedulingError):
            SymmetricScheduler(quantum=0)

    def test_faster_total_finish_than_symmetric_worst_case(self):
        # Aggregate makespan with the asym scheduler is never worse
        # than the stock scheduler on the same seed/workload.
        def makespan(asym):
            worst = 0.0
            for seed in range(6):
                system = build("1f-3s/8", seed=seed, asym=asym)
                for i in range(3):
                    system.kernel.start(f"t{i}", spin(ONE_SECOND_FAST / 2))
                worst = max(worst, system.run())
            return worst
        assert makespan(asym=True) <= makespan(asym=False) + 1e-9


class TestKernelMetrics:
    def test_migration_counting(self):
        # Pull migration moves a running thread across cores, which must
        # show up in both the thread's counter and the run's total.
        system = build("2f-2s/8", seed=0, asym=True)
        for i in range(2):
            system.kernel.start(f"fast{i}", spin(ONE_SECOND_FAST / 10))
        victim = system.kernel.start("victim", spin(ONE_SECOND_FAST))
        system.run()
        assert victim.migrations >= 1
        assert system.run_metrics().migrations >= 1

    def test_core_utilization(self):
        system = build("4f-0s")
        system.kernel.spawn(SimThread("t", spin(ONE_SECOND_FAST),
                                      affinity=frozenset([2])))
        system.run()
        utilization = system.kernel.core_utilization()
        assert utilization[2] == pytest.approx(1.0)
        assert utilization[0] == pytest.approx(0.0)

    def test_context_switches_counted(self):
        system = build("4f-0s")
        system.kernel.start("t", spin(1000))
        system.run()
        assert system.run_metrics().context_switches >= 1
