"""Kernel execution semantics: compute timing, blocking, termination."""

import pytest

from repro import System
from repro.errors import DeadlockError, SchedulingError, SimulationError
from repro.kernel import (
    Barrier,
    BarrierWait,
    Compute,
    CondVar,
    GetCore,
    GetTime,
    Join,
    Lock,
    Mutex,
    Notify,
    Acquire,
    Release,
    Semaphore,
    SetAffinity,
    SimThread,
    Sleep,
    Spawn,
    ThreadState,
    Unlock,
    Wait,
    YieldCPU,
)
from repro.kernel.kernel import _Slice
from repro.machine import DEFAULT_FREQUENCY_HZ
from tests import harness

ONE_SECOND_FAST = DEFAULT_FREQUENCY_HZ  # cycles that take 1s on a fast core


def spin(cycles):
    yield Compute(cycles)


class TestComputeTiming:
    def test_one_second_of_cycles_on_fast_core(self):
        system = System.build("4f-0s")
        system.kernel.start("t", spin(ONE_SECOND_FAST))
        assert system.run() == pytest.approx(1.0)

    def test_slow_core_is_scale_times_slower(self):
        system = System.build("0f-4s/8")
        system.kernel.start("t", spin(ONE_SECOND_FAST))
        assert system.run() == pytest.approx(8.0)

    def test_zero_cycle_compute_completes_instantly(self):
        system = System.build("4f-0s")
        system.kernel.start("t", spin(0))
        assert system.run() == pytest.approx(0.0)

    def test_parallel_threads_on_distinct_cores(self):
        system = System.build("4f-0s")
        for i in range(4):
            system.kernel.start(f"t{i}", spin(ONE_SECOND_FAST))
        # Four threads, four equal cores: all run in parallel.
        assert system.run() == pytest.approx(1.0)

    def test_two_threads_share_one_core(self):
        system = System.build("4f-0s")
        body_affinity = frozenset([0])
        for i in range(2):
            system.kernel.spawn(SimThread(
                f"t{i}", spin(ONE_SECOND_FAST), affinity=body_affinity))
        assert system.run() == pytest.approx(2.0)

    def test_cpu_accounting(self):
        system = System.build("4f-0s")
        thread = system.kernel.start("t", spin(ONE_SECOND_FAST / 2))
        system.run()
        assert thread.cpu_seconds == pytest.approx(0.5)
        assert thread.cycles_retired == pytest.approx(ONE_SECOND_FAST / 2)

    def test_return_value_captured(self):
        def body():
            yield Compute(1000)
            return "done"
        system = System.build("4f-0s")
        thread = system.kernel.start("t", body())
        system.run()
        assert thread.return_value == "done"
        assert thread.state is ThreadState.TERMINATED

    def test_thread_lifetime(self):
        system = System.build("4f-0s")
        thread = system.kernel.start("t", spin(ONE_SECOND_FAST))
        system.run()
        assert thread.lifetime() == pytest.approx(1.0)

    def test_spawning_twice_rejected(self):
        system = System.build("4f-0s")
        thread = system.kernel.start("t", spin(10))
        with pytest.raises(SchedulingError):
            system.kernel.spawn(thread)

    def test_yielding_non_instruction_rejected(self):
        def bad():
            yield 42
        system = System.build("4f-0s")
        thread = system.kernel.start("t", bad())
        with pytest.raises(SimulationError,
                           match="'t' yielded 42, not an Instruction"):
            system.run()
        # Rejected before the thread takes it as its instruction.
        assert thread.current_instruction is None

    @pytest.mark.parametrize("cycles", [-1, float("nan")])
    def test_invalid_cycles_rejected(self, cycles):
        # Accepted, a NaN compute would run one full quantum, retire
        # whatever that quantum held and complete, unflagged by the
        # conservation checks.
        with pytest.raises(ValueError):
            Compute(cycles)

    def test_infinite_cycles_accepted(self):
        assert Compute(float("inf")).cycles == float("inf")

    def test_each_core_rearms_one_slice(self, monkeypatch):
        # Sliced, six threads on four cores end and arm a slice at
        # every quantum boundary; a core re-arms the slice that just
        # fired, so only each core's first slice is built.
        built = []
        init = _Slice.__init__

        def counting_init(piece, *args):
            built.append(piece)
            init(piece, *args)

        monkeypatch.setattr(_Slice, "__init__", counting_init)

        def body():
            for _ in range(5):
                yield Compute(3e8)

        system = System.build("2f-2s/8", seed=1, coalesce=False)
        for index in range(6):
            system.kernel.spawn(SimThread(f"t{index}", body()))
        system.run()
        assert system.sim.events_fired == 2444
        assert len(built) <= 4


class TestSleepAndTime:
    def test_sleep_takes_wall_time_without_cpu(self):
        def body():
            yield Sleep(2.5)
        system = System.build("4f-0s")
        thread = system.kernel.start("t", body())
        assert system.run() == pytest.approx(2.5)
        assert thread.cpu_seconds == 0.0

    @pytest.mark.parametrize("seconds", [-0.5, float("nan")])
    def test_invalid_seconds_rejected(self, seconds):
        # NaN is caught here, not later as an event at NaN time.
        with pytest.raises(ValueError):
            Sleep(seconds)

    def test_gettime_and_getcore(self):
        observed = {}

        def body():
            yield Compute(ONE_SECOND_FAST)
            observed["time"] = yield GetTime()
            observed["core"] = yield GetCore()
        system = System.build("4f-0s")
        system.kernel.start("t", body())
        system.run()
        assert observed["time"] == pytest.approx(1.0)
        assert observed["core"] in range(4)

    def test_sleeping_threads_do_not_occupy_cores(self):
        # 8 sleepers + 1 computer on a 1-fast-core machine: the
        # computer must finish in 1s because sleepers are off-CPU.
        def sleeper():
            yield Sleep(10.0)
        system = System.build("4f-0s")
        for i in range(8):
            system.kernel.spawn(SimThread(f"s{i}", sleeper(),
                                          affinity=frozenset([0])))
        worker = SimThread("w", spin(ONE_SECOND_FAST),
                           affinity=frozenset([0]))
        system.kernel.spawn(worker)
        system.run()
        assert worker.finish_time == pytest.approx(1.0)


class TestSpawnJoin:
    def test_join_returns_child_value(self):
        results = {}

        def child():
            yield Compute(ONE_SECOND_FAST)
            return 99

        def parent():
            handle = yield Spawn(SimThread("child", child()))
            results["value"] = yield Join(handle)

        system = System.build("4f-0s")
        system.kernel.start("parent", parent())
        system.run()
        assert results["value"] == 99

    def test_join_on_terminated_thread_returns_immediately(self):
        results = {}

        def child():
            yield Compute(1000)
            return "early"

        def parent():
            handle = yield Spawn(SimThread("child", child()))
            yield Sleep(5.0)  # child long done by now
            results["value"] = yield Join(handle)

        system = System.build("4f-0s")
        system.kernel.start("parent", parent())
        system.run()
        assert results["value"] == "early"

    def test_multiple_joiners_all_wake(self):
        woken = []

        def child():
            yield Compute(ONE_SECOND_FAST)

        def waiter(name, handle):
            yield Join(handle)
            woken.append(name)

        system = System.build("4f-0s")
        handle = SimThread("child", child())
        system.kernel.spawn(handle)
        for i in range(3):
            system.kernel.start(f"w{i}", waiter(f"w{i}", handle))
        system.run()
        assert sorted(woken) == ["w0", "w1", "w2"]


class TestMutex:
    def test_critical_sections_serialize(self):
        mutex = Mutex("m")
        order = []

        def body(name):
            yield Lock(mutex)
            order.append((name, "in"))
            yield Compute(ONE_SECOND_FAST)
            order.append((name, "out"))
            yield Unlock(mutex)

        system = System.build("4f-0s")
        system.kernel.start("a", body("a"))
        system.kernel.start("b", body("b"))
        finish = system.run()
        # Serialized: 2 seconds total despite 4 cores.
        assert finish == pytest.approx(2.0)
        assert order[0][1] == "in" and order[1][0] == order[0][0]

    def test_fifo_handoff(self):
        mutex = Mutex("m")
        admitted = []

        def holder():
            yield Lock(mutex)
            yield Compute(ONE_SECOND_FAST)
            yield Unlock(mutex)

        def contender(name):
            yield Sleep(0.1 * (1 + len(admitted)))
            yield Lock(mutex)
            admitted.append(name)
            yield Unlock(mutex)

        system = System.build("4f-0s")
        system.kernel.start("holder", holder())
        system.kernel.start("c1", contender("c1"))
        system.kernel.start("c2", contender("c2"))
        system.run()
        assert admitted == ["c1", "c2"]

    def test_unlock_by_non_owner_rejected(self):
        mutex = Mutex("m")

        def bad():
            yield Unlock(mutex)

        system = System.build("4f-0s")
        system.kernel.start("t", bad())
        with pytest.raises(SchedulingError):
            system.run()

    def test_relock_rejected(self):
        mutex = Mutex("m")

        def bad():
            yield Lock(mutex)
            yield Lock(mutex)

        system = System.build("4f-0s")
        system.kernel.start("t", bad())
        with pytest.raises(SchedulingError):
            system.run()

    def test_contention_counted(self):
        mutex = Mutex("m")

        def body():
            yield Lock(mutex)
            yield Compute(ONE_SECOND_FAST / 10)
            yield Unlock(mutex)

        system = System.build("4f-0s")
        for i in range(3):
            system.kernel.start(f"t{i}", body())
        system.run()
        assert mutex.contention_count == 2


class TestBarrier:
    def test_barrier_releases_all_at_once(self):
        barrier = Barrier(3)
        release_times = []

        def body(cycles):
            yield Compute(cycles)
            yield BarrierWait(barrier)
            now = yield GetTime()
            release_times.append(now)

        system = System.build("4f-0s")
        system.kernel.start("fast1", body(ONE_SECOND_FAST / 10))
        system.kernel.start("fast2", body(ONE_SECOND_FAST / 2))
        system.kernel.start("slowest", body(ONE_SECOND_FAST))
        system.run()
        assert len(release_times) == 3
        assert all(t == pytest.approx(1.0) for t in release_times)
        assert barrier.generation == 1

    def test_barrier_is_reusable(self):
        barrier = Barrier(2)

        def body():
            for _ in range(3):
                yield Compute(1000)
                yield BarrierWait(barrier)

        system = System.build("4f-0s")
        system.kernel.start("a", body())
        system.kernel.start("b", body())
        system.run()
        assert barrier.generation == 3

    def test_single_party_barrier_never_blocks(self):
        barrier = Barrier(1)

        def body():
            yield BarrierWait(barrier)

        system = System.build("4f-0s")
        system.kernel.start("t", body())
        system.run()
        assert barrier.generation == 1

    def test_invalid_parties_rejected(self):
        with pytest.raises(SchedulingError):
            Barrier(0)


class TestCondVar:
    def test_wait_notify_roundtrip(self):
        mutex = Mutex("m")
        cond = CondVar("c")
        log = []

        def consumer():
            yield Lock(mutex)
            yield Wait(cond, mutex)
            log.append(("consumer", "woke"))
            yield Unlock(mutex)

        def producer():
            yield Sleep(1.0)
            yield Lock(mutex)
            yield Notify(cond)
            log.append(("producer", "notified"))
            yield Unlock(mutex)

        system = System.build("4f-0s")
        system.kernel.start("consumer", consumer())
        system.kernel.start("producer", producer())
        system.run()
        assert ("consumer", "woke") in log
        # Consumer must re-acquire the mutex: wakes only after producer
        # unlocks, so "notified" is logged first.
        assert log[0] == ("producer", "notified")

    def test_notify_all(self):
        mutex = Mutex("m")
        cond = CondVar("c")
        woken = []

        def consumer(name):
            yield Lock(mutex)
            yield Wait(cond, mutex)
            woken.append(name)
            yield Unlock(mutex)

        def producer():
            yield Sleep(1.0)
            yield Lock(mutex)
            yield Notify(cond, None)  # notify all
            yield Unlock(mutex)

        system = System.build("4f-0s")
        for i in range(3):
            system.kernel.start(f"c{i}", consumer(f"c{i}"))
        system.kernel.start("p", producer())
        system.run()
        assert sorted(woken) == ["c0", "c1", "c2"]

    @staticmethod
    def _notify_books(unlock_first):
        """Lock books of one Wait/Notify round trip on ``4f-0s``: the
        producer notifies while holding the mutex, or after unlocking
        it (``unlock_first``)."""
        mutex = Mutex("m")
        cond = CondVar("c")

        def consumer():
            yield Lock(mutex)
            yield Wait(cond, mutex)
            yield Unlock(mutex)

        def producer():
            yield Sleep(1.0)
            yield Lock(mutex)
            if unlock_first:
                yield Unlock(mutex)
                yield Notify(cond)
            else:
                yield Notify(cond)
                yield Unlock(mutex)

        system = System.build("4f-0s")
        system.kernel.start("consumer", consumer())
        system.kernel.start("producer", producer())
        system.run()
        counters = system.run_metrics().counters
        return mutex, {name: value for name, value in counters.items()
                       if name.startswith("lock.")}

    def test_notify_under_the_mutex_queues_then_hands_off(self):
        # The waiter queues on the held mutex (contention booked) and
        # is granted it at the notifier's Unlock.
        mutex, counters = self._notify_books(unlock_first=False)
        assert (mutex.acquisitions, mutex.contention_count,
                mutex.max_queue_depth) == (3, 1, 1)
        assert counters == {"lock.acquisitions": 3.0,
                            "lock.contended": 1.0,
                            "lock.max_queue_depth": 1.0,
                            "lock.handoffs.fast_to_fast": 1.0}

    def test_notify_after_unlock_grants_directly(self):
        # A free mutex goes straight to the waiter: no contention and
        # no handoff pair is booked.
        mutex, counters = self._notify_books(unlock_first=True)
        assert (mutex.acquisitions, mutex.contention_count,
                mutex.max_queue_depth) == (3, 0, 0)
        assert counters == {"lock.acquisitions": 3.0}


class TestSemaphore:
    def test_permits_bound_concurrency(self):
        semaphore = Semaphore(2)
        concurrent = {"now": 0, "max": 0}

        def body():
            yield Acquire(semaphore)
            concurrent["now"] += 1
            concurrent["max"] = max(concurrent["max"], concurrent["now"])
            yield Compute(ONE_SECOND_FAST / 10)
            concurrent["now"] -= 1
            yield Release(semaphore)

        system = System.build("4f-0s")
        for i in range(6):
            system.kernel.start(f"t{i}", body())
        system.run()
        assert concurrent["max"] == 2

    def test_release_wakes_fifo(self):
        semaphore = Semaphore(0)
        order = []

        def waiter(name):
            yield Acquire(semaphore)
            order.append(name)

        def releaser():
            yield Sleep(0.5)
            for _ in range(2):
                yield Release(semaphore)

        system = System.build("4f-0s")
        system.kernel.start("w0", waiter("w0"))
        system.kernel.start("w1", waiter("w1"))
        system.kernel.start("r", releaser())
        system.run()
        assert order == ["w0", "w1"]

    def test_negative_permits_rejected(self):
        with pytest.raises(SchedulingError):
            Semaphore(-1)


class TestAffinityAndYield:
    def test_affinity_pins_to_core(self):
        observed = []

        def body():
            for _ in range(3):
                yield Compute(1000)
                core = yield GetCore()
                observed.append(core)

        system = System.build("2f-2s/8")
        system.kernel.spawn(SimThread("t", body(), affinity=frozenset([3])))
        system.run()
        assert observed == [3, 3, 3]

    def test_set_affinity_moves_thread(self):
        observed = []

        def body():
            yield SetAffinity([2])
            yield Compute(1000)
            observed.append((yield GetCore()))

        system = System.build("4f-0s")
        system.kernel.start("t", body())
        system.run()
        assert observed == [2]

    def test_yield_allows_peer_to_run(self):
        log = []

        def polite():
            log.append("polite-start")
            yield YieldCPU()
            log.append("polite-end")

        def peer():
            log.append("peer")
            yield Compute(0)

        system = System.build("4f-0s")
        affinity = frozenset([0])
        system.kernel.spawn(SimThread("polite", polite(), affinity=affinity))
        system.kernel.spawn(SimThread("peer", peer(), affinity=affinity))
        system.run()
        assert log == ["polite-start", "peer", "polite-end"]


class TestDeadlockDetection:
    def test_lock_cycle_detected(self):
        m1, m2 = Mutex("m1"), Mutex("m2")

        def one():
            yield Lock(m1)
            yield Sleep(0.1)
            yield Lock(m2)

        def two():
            yield Lock(m2)
            yield Sleep(0.1)
            yield Lock(m1)

        system = System.build("4f-0s")
        system.kernel.start("one", one())
        system.kernel.start("two", two())
        with pytest.raises(DeadlockError) as excinfo:
            system.run()
        assert set(excinfo.value.blocked_threads) == {"one", "two"}

    def test_daemon_threads_do_not_deadlock_the_run(self):
        forever = Semaphore(0)

        def daemon():
            yield Acquire(forever)  # blocks forever

        def main():
            yield Compute(1000)

        system = System.build("4f-0s")
        system.kernel.start("daemon", daemon(), daemon=True)
        system.kernel.start("main", main())
        system.run()  # must not raise: daemon is excluded


class _Nap(Sleep):
    """A Sleep subclass: the kernel treats it as its base."""

    __slots__ = ()


class _Work(Compute):
    """A Compute subclass: the kernel treats it as its base."""

    __slots__ = ()


class TestInstructionTypes:
    """The kernel dispatches on an instruction's exact type, resolving
    a subclass to its base the first time it sees it."""

    @staticmethod
    def _stream(sleep, compute, coalesce):
        outcome = {}

        def run():
            system = System.build("2f-2s/8", seed=5, coalesce=coalesce)

            def body():
                for _ in range(3):
                    yield compute(ONE_SECOND_FAST / 40)
                    yield sleep(0.01)

            threads = [system.kernel.start(f"t{i}", body())
                       for i in range(6)]
            outcome["finish"] = system.run()
            outcome["cycles"] = [t.cycles_retired for t in threads]
            outcome["metrics"] = system.run_metrics().to_json()

        outcome["stream"] = harness.record_event_stream(run)
        return outcome

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_subclasses_behave_exactly_like_their_bases(self, coalesce):
        assert self._stream(_Nap, _Work, coalesce) == \
            self._stream(Sleep, Compute, coalesce)

    def test_preempted_subclass_compute_resumes_its_cycles(self):
        system = System.build("4f-0s")
        pinned = frozenset([0])

        def body():
            yield _Work(ONE_SECOND_FAST)

        threads = [system.kernel.spawn(SimThread(f"t{i}", body(),
                                                 affinity=pinned))
                   for i in range(2)]
        assert system.run() == pytest.approx(2.0)
        for thread in threads:
            assert thread.preemptions > 0
            assert thread.cycles_retired == \
                pytest.approx(ONE_SECOND_FAST)
