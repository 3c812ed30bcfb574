"""Tests for the fault-injection subsystem (:mod:`repro.faults`).

The contract under test: a :class:`FaultSchedule` is an ordinary,
deterministic part of a run's identity.  Faults re-split in-flight
slices, migrate work off dying cores and stall running threads —
without ever losing a cycle (the conservation invariants hold
mid-storm) and without breaking the byte-identical-replay guarantee,
serial and process-pool alike.
"""

import json
from dataclasses import replace

import pytest

from repro import System
from repro.errors import (
    ConfigurationError,
    SchedulingError,
    SimulationError,
)
from repro.experiments.figures import fig12_locks
from repro.experiments.parallel import (
    ProcessPoolBackend,
    RunTask,
    SerialBackend,
    task_fingerprint,
)
from repro.experiments.profiles import QUICK
from repro.faults import (
    CoreOfflineEvent,
    CoreOnlineEvent,
    FaultInjector,
    FaultSchedule,
    StallEvent,
    ThrottleEvent,
    event_from_dict,
)
from repro.kernel import (
    AsymmetryAwareScheduler,
    Compute,
    Lock,
    Mutex,
    SimThread,
    Sleep,
    Unlock,
)
from repro.machine.duty_cycle import SUPPORTED_DUTY_CYCLES, throttle_steps
from repro.sim.events import EventQueue
from repro.workloads.base import RunOptions
from repro.workloads.specjbb import SpecJBB

from tests.harness import (
    WORKLOAD_TABLE,
    WORKLOAD_TABLE_CONFIG,
    assert_conservation,
    golden_fault_schedule,
)


def _compute_body(cycles):
    yield Compute(cycles)


def _spawn_compute(system, cycles_list):
    threads = []
    for index, cycles in enumerate(cycles_list):
        thread = SimThread(f"t{index}", _compute_body(cycles))
        system.kernel.spawn(thread)
        threads.append(thread)
    return threads


def _faulted_run(schedule, config="2f-2s/8", seed=5,
                 cycles=(5e8, 3e8, 2e8, 1.2e8, 0.9e8),
                 scheduler=None):
    system = System.build(config, seed=seed, scheduler=scheduler)
    injector = schedule.install(system) if schedule is not None \
        else None
    threads = _spawn_compute(system, cycles)
    system.run()
    return system, injector, threads


class TestScheduleConstruction:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule([
            StallEvent(0.3, 0, 0.01),
            ThrottleEvent(0.1, 1, 0.5),
            CoreOfflineEvent(0.2, 2),
        ])
        assert [event.time for event in schedule] == [0.1, 0.2, 0.3]

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule([ThrottleEvent(-0.1, 0, 0.5)])

    def test_negative_core_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule([CoreOfflineEvent(0.1, -1)])

    @pytest.mark.parametrize("duty", [0.0, -0.5, 1.5])
    def test_bad_duty_cycle_rejected(self, duty):
        with pytest.raises(ConfigurationError):
            FaultSchedule([ThrottleEvent(0.1, 0, duty)])

    def test_nonpositive_durations_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule([ThrottleEvent(0.1, 0, 0.5, duration=0.0)])
        with pytest.raises(ConfigurationError):
            FaultSchedule([StallEvent(0.1, 0, -0.01)])

    def test_counts_by_kind(self):
        assert golden_fault_schedule().counts() == {
            "throttle": 2, "offline": 1, "online": 1, "stall": 1}

    def test_validate_rejects_out_of_range_core(self):
        schedule = FaultSchedule([ThrottleEvent(0.1, 7, 0.5)])
        with pytest.raises(ConfigurationError,
                           match="targets core 7"):
            schedule.validate(n_cores=4)

    def test_validate_rejects_stranding_the_machine(self):
        schedule = FaultSchedule(
            [CoreOfflineEvent(0.1 * i, i) for i in range(4)])
        with pytest.raises(ConfigurationError,
                           match="at least one core"):
            schedule.validate(n_cores=4)

    def test_validate_honors_interleaved_online(self):
        schedule = FaultSchedule([
            CoreOfflineEvent(0.1, 0),
            CoreOfflineEvent(0.2, 1),
            CoreOnlineEvent(0.3, 0),
            CoreOfflineEvent(0.4, 2),
            CoreOfflineEvent(0.5, 3),
        ])
        schedule.validate(n_cores=4)  # core 0 back before 3 goes down

    def test_install_validates_against_machine(self):
        system = System.build("4f-0s", seed=1)
        with pytest.raises(ConfigurationError):
            FaultSchedule([StallEvent(0.1, 9, 0.01)]).install(system)


class TestSerialization:
    def test_event_dict_round_trip(self):
        for event in golden_fault_schedule():
            assert event_from_dict(event.as_dict()) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            event_from_dict({"kind": "meteor", "time": 0.1, "core": 0})

    def test_malformed_event_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            event_from_dict({"kind": "stall", "time": 0.1})

    def test_schedule_json_round_trip_is_byte_stable(self):
        schedule = golden_fault_schedule()
        text = schedule.to_json()
        assert FaultSchedule.from_json(text).to_json() == text
        data = json.loads(text)
        assert data["seed"] == 0
        assert data["label"] == "golden-fault-mix"

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "schedule.json"
        schedule = golden_fault_schedule()
        schedule.save(str(path))
        loaded = FaultSchedule.load(str(path))
        assert loaded.to_json() == schedule.to_json()


class TestThrottleStorm:
    def test_same_seed_same_storm(self):
        make = lambda: FaultSchedule.throttle_storm(  # noqa: E731
            seed=7, duration=1.0, cores=range(4))
        assert make().to_json() == make().to_json()

    def test_different_seed_different_storm(self):
        a = FaultSchedule.throttle_storm(seed=1, duration=1.0,
                                         cores=range(4))
        b = FaultSchedule.throttle_storm(seed=2, duration=1.0,
                                         cores=range(4))
        assert a.to_json() != b.to_json()

    def test_storm_events_are_well_formed(self):
        storm = FaultSchedule.throttle_storm(seed=3, duration=0.5,
                                             cores=[1, 2])
        assert len(storm) > 0
        steps = set(throttle_steps())
        for event in storm:
            assert isinstance(event, ThrottleEvent)
            assert 0.0 < event.time < 0.5
            assert event.core in (1, 2)
            assert event.duty_cycle in steps
            assert event.duration > 0.0

    def test_permanent_fraction_one_means_no_recovery(self):
        storm = FaultSchedule.throttle_storm(
            seed=3, duration=0.5, cores=[0], permanent_fraction=1.0)
        assert all(event.duration is None for event in storm)

    @pytest.mark.parametrize("kwargs", [
        {"duration": 0.0}, {"events_per_second": 0.0}, {"cores": []},
    ])
    def test_invalid_storm_parameters_rejected(self, kwargs):
        base = {"seed": 1, "duration": 1.0, "cores": [0],
                "events_per_second": 10.0}
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            FaultSchedule.throttle_storm(**base)


class TestThrottleInjection:
    def test_throttle_preserves_conservation(self):
        schedule = FaultSchedule([
            ThrottleEvent(0.02, 0, 0.25, duration=0.05),
            ThrottleEvent(0.03, 1, 0.125),
        ])
        system, injector, threads = _faulted_run(schedule)
        assert_conservation(system.run_metrics())
        assert injector.applied == 2
        assert all(t.cycles_retired > 0 for t in threads)

    def test_throttle_and_recovery_counters(self):
        schedule = FaultSchedule([
            ThrottleEvent(0.02, 0, 0.25, duration=0.05),
            ThrottleEvent(0.03, 1, 0.125),
        ])
        system, _, _ = _faulted_run(schedule)
        counters = system.run_metrics().counters
        assert counters["faults.throttle"] == 2
        assert counters["faults.recovery"] == 1

    def test_time_at_speed_books_split_by_duty(self):
        # Permanent throttle of core 0 at t=0.05: its books must show
        # both the full-speed and the throttled interval, summing to
        # the run's duration (the conservation checker enforces the
        # sum; here we check the split itself).
        schedule = FaultSchedule([ThrottleEvent(0.05, 0, 0.25)])
        system, _, _ = _faulted_run(schedule)
        metrics = system.run_metrics()
        books = metrics.cores[0].time_at_speed
        assert set(books) == {"1", "0.25"}
        assert books["1"] == pytest.approx(0.05)
        assert sum(books.values()) == pytest.approx(metrics.duration)

    def test_reprogram_snaps_to_supported_step(self):
        system = System.build("4f-0s", seed=1)
        core = system.machine.cores[0]
        snapped = system.kernel.reprogram_core(core, 0.3)
        assert snapped in SUPPORTED_DUTY_CYCLES
        assert core.duty_cycle == snapped

    def test_throttled_run_is_slower(self):
        clean, _, _ = _faulted_run(None, config="4f-0s",
                                   cycles=(5e8, 5e8, 5e8, 5e8))
        schedule = FaultSchedule(
            [ThrottleEvent(0.01, core, 0.125) for core in range(4)])
        stormy, _, _ = _faulted_run(schedule, config="4f-0s",
                                    cycles=(5e8, 5e8, 5e8, 5e8))
        assert stormy.sim.now > clean.sim.now


class TestOfflineInjection:
    def test_offline_migrates_work_and_run_completes(self):
        schedule = FaultSchedule([CoreOfflineEvent(0.02, 0)])
        system, _, threads = _faulted_run(schedule)
        assert_conservation(system.run_metrics())
        core = system.machine.cores[0]
        assert not core.online
        assert core.current_thread is None
        assert all(t.cycles_retired > 0 for t in threads)
        counters = system.run_metrics().counters
        assert counters["faults.offline"] == 1
        assert counters["faults.offline_migrations"] >= 1

    def test_offline_core_stops_accumulating_busy_time(self):
        schedule = FaultSchedule([CoreOfflineEvent(0.02, 0)])
        system, _, _ = _faulted_run(schedule)
        metrics = system.run_metrics()
        core = metrics.cores[0]
        assert core.busy_seconds <= 0.02 + 1e-9
        assert core.busy_seconds + core.idle_seconds == \
            pytest.approx(metrics.duration)

    def test_online_brings_core_back(self):
        schedule = FaultSchedule([
            CoreOfflineEvent(0.02, 0),
            CoreOnlineEvent(0.06, 0),
        ])
        system, _, _ = _faulted_run(schedule)
        assert_conservation(system.run_metrics())
        assert system.machine.cores[0].online
        counters = system.run_metrics().counters
        assert counters["faults.online"] == 1

    def test_offline_and_online_are_idempotent(self):
        system = System.build("4f-0s", seed=1)
        core = system.machine.cores[0]
        system.kernel.set_core_offline(core)
        system.kernel.set_core_offline(core)  # no-op, no error
        assert not core.online
        system.kernel.set_core_online(core)
        system.kernel.set_core_online(core)
        assert core.online

    def test_last_online_core_refuses_to_die(self):
        system = System.build("4f-0s", seed=1)
        cores = system.machine.cores
        for core in cores[:-1]:
            system.kernel.set_core_offline(core)
        with pytest.raises(SchedulingError,
                           match="last online core"):
            system.kernel.set_core_offline(cores[-1])


class TestStallInjection:
    def test_stall_preserves_remaining_cycles(self):
        # Stall every core at t=0.02: exactly the cores with a running
        # thread stall, the rest are counted as skipped, and every
        # yielded cycle still retires exactly once.
        cycles = (4e8, 3e8)
        schedule = FaultSchedule(
            [StallEvent(0.02, core, 0.03) for core in range(4)])
        system, _, threads = _faulted_run(schedule, cycles=cycles)
        assert_conservation(system.run_metrics())
        for thread, expected in zip(threads, cycles):
            assert thread.cycles_retired == pytest.approx(expected,
                                                          abs=2.0)
        counters = system.run_metrics().counters
        assert counters["faults.stall"] == 2
        assert counters["faults.stall_skipped"] == 2

    def test_stall_extends_the_run(self):
        clean, _, _ = _faulted_run(None, config="4f-0s",
                                   cycles=(4e8,))
        schedule = FaultSchedule(
            [StallEvent(0.01, core, 0.5) for core in range(4)])
        stalled, _, _ = _faulted_run(schedule, config="4f-0s",
                                     cycles=(4e8,))
        assert stalled.sim.now > clean.sim.now + 0.4

    def test_stall_on_idle_core_is_skipped(self):
        system = System.build("4f-0s", seed=1)
        assert not system.kernel.stall_current(
            system.machine.cores[0], 0.01)

    def test_nonpositive_stall_rejected_by_kernel(self):
        system = System.build("4f-0s", seed=1)
        with pytest.raises(SimulationError):
            system.kernel.stall_current(system.machine.cores[0], 0.0)


def _contended_body(mutex, rounds, cycles, nap):
    for _ in range(rounds):
        yield Compute(cycles)
        yield Lock(mutex)
        yield Compute(cycles / 4)
        yield Unlock(mutex)
        yield Sleep(nap)


class TestSliceEventsUnderStorm:
    """A compute slice is its own end event.

    Every path that retires a partial slice cancels it — pulls,
    macro splits, reprogramming, stalls — and a split re-arms a fresh
    slice, while a slice that fired is re-armed for its core's next
    slice.  So a slice object may fire many times, but each push of
    it fires at most once, and a cancelled push never fires.
    """

    @pytest.mark.parametrize("coalesce", [True, False],
                             ids=["coalesced", "sliced"])
    def test_cancelled_slices_never_fire(self, monkeypatch, coalesce):
        system = System.build("1f-3s/8", seed=3, coalesce=coalesce,
                              scheduler=AsymmetryAwareScheduler())
        kernel, queue = system.kernel, system.sim._queue
        storm = FaultSchedule.throttle_storm(
            seed=4, duration=0.4, cores=[0, 1, 2, 3],
            events_per_second=40)
        stalls = [StallEvent(0.05 + 0.04 * i, i % 4, 0.01)
                  for i in range(8)]
        FaultSchedule(list(storm) + stalls).install(system)
        # Lock handoffs wake threads onto cores running macro slices.
        mutex = Mutex()
        for index in range(8):
            kernel.spawn(SimThread(f"t{index}", _contended_body(
                mutex, 6, 5e7 * (index + 1), 0.003 * (index + 1))))

        # A push is (slice, the seq it was pushed with); holding the
        # slice keeps its identity unique for the whole run.
        pushed, fired = set(), []
        push_event = EventQueue.push_event
        pop_before = EventQueue.pop_before
        slice_ends = (kernel._on_slice_end, kernel._on_macro_end)

        def recording_push(q, event, group=-1):
            push_event(q, event, group)
            pushed.add((event, event.seq))
            return event

        def checked_pop(q, limit):
            item = pop_before(q, limit)
            if item is not None:
                time, callback, args = item
                if callback in slice_ends:
                    piece = kernel._slices.get(args[0].index)
                    assert piece is not None and not piece.cancelled
                    assert piece.time == time
                    assert piece.callback == callback
                    push = (piece, piece.seq)
                    assert push in pushed and push not in fired
                    fired.append(push)
                assert q.heap_size() - len(q) <= len(q) + 1
            return item

        monkeypatch.setattr(EventQueue, "push_event", recording_push)
        monkeypatch.setattr(EventQueue, "pop_before", checked_pop)
        system.run()

        counters = kernel.metrics.counters
        assert kernel.preempt_pulls > 0
        assert counters.get("faults.throttle") > 0
        assert counters.get("faults.stall") > 0
        if coalesce:
            assert counters.get("coalesce.macros_split") > 0
        # Every push was cancelled, fired once or is pending.  A
        # cancelled slice is never pushed again, so its last push is
        # the cancelled one; a pending push is judged by its heap seq.
        cancelled = {(piece, piece.seq) for piece, _ in pushed
                     if piece.cancelled}
        fired_pushes = set(fired)
        pending = {(entry[3], entry[2]) for entry in queue._heap
                   if len(entry) == 4 and not entry[3].cancelled}
        assert cancelled and len(fired_pushes) == len(fired)
        assert not cancelled & fired_pushes
        assert pushed == cancelled | fired_pushes | (pending & pushed)
        assert_conservation(system.run_metrics())


class TestDeterminism:
    def test_identical_schedule_and_seed_byte_identical_metrics(self):
        runs = [_faulted_run(golden_fault_schedule())[0]
                for _ in range(2)]
        first, second = (run.run_metrics().to_json() for run in runs)
        assert first == second

    def test_faulted_workload_replays_byte_identically(self):
        storm = FaultSchedule.throttle_storm(seed=9, duration=0.4,
                                             cores=range(4))

        def run():
            workload = SpecJBB(warehouses=2, measurement_seconds=0.3,
                               warmup_seconds=0.1)
            return workload.run_once("2f-2s/8", seed=42,
                                     options=RunOptions(faults=storm))

        assert run().run_metrics.to_json() == \
            run().run_metrics.to_json()

    def test_faults_change_the_metrics(self):
        clean, _, _ = _faulted_run(None)
        stormy, _, _ = _faulted_run(golden_fault_schedule())
        assert clean.run_metrics().to_json() != \
            stormy.run_metrics().to_json()


@pytest.mark.parametrize("name", sorted(WORKLOAD_TABLE))
def test_every_workload_installs_its_own_schedule(name):
    """``RunOptions.faults`` reaches the system the workload runs on,
    including one it delegates to (``TpchQuery``'s power run)."""
    storm = FaultSchedule.throttle_storm(
        seed=5, duration=2.0, cores=range(4), events_per_second=25.0,
        recovery_mean=0.02)
    result = WORKLOAD_TABLE[name]().run_once(
        WORKLOAD_TABLE_CONFIG, seed=7, options=RunOptions(faults=storm))
    assert result.run_metrics.counters.get("faults.throttle", 0.0) > 0


class TestParallelByteIdentity:
    @staticmethod
    def _tasks():
        storm = FaultSchedule.throttle_storm(seed=11, duration=0.4,
                                             cores=range(4))
        return [
            RunTask(SpecJBB(warehouses=2, measurement_seconds=0.3,
                            warmup_seconds=0.1),
                    config, seed,
                    scheduler_factory=factory,
                    options=RunOptions(faults=storm))
            for config in ("2f-2s/8", "1f-3s/8")
            for seed in (42, 43)
            for factory in (None, AsymmetryAwareScheduler)
        ]

    def test_faulted_sweep_serial_vs_pool_byte_identical(self):
        serial = SerialBackend().execute(self._tasks())
        pooled = ProcessPoolBackend(jobs=4).execute(self._tasks())
        assert [r.run_metrics.to_json() for r in serial] == \
            [r.run_metrics.to_json() for r in pooled]

    def test_default_schedule_reaches_worker_processes(self):
        # The CLI's --faults flag puts a schedule on every task's
        # options; worker processes must apply it or parallel runs
        # diverge.
        faulted = RunOptions(faults=golden_fault_schedule())
        tasks = [RunTask(SpecJBB(warehouses=2,
                                 measurement_seconds=0.3,
                                 warmup_seconds=0.1),
                         "2f-2s/8", seed, options=faulted)
                 for seed in (42, 43)]
        serial = SerialBackend().execute(tasks)
        pooled = ProcessPoolBackend(jobs=2).execute(tasks)
        clean = SerialBackend().execute(
            [replace(task, options=RunOptions()) for task in tasks])
        assert [r.run_metrics.to_json() for r in serial] == \
            [r.run_metrics.to_json() for r in pooled]
        assert serial[0].run_metrics.to_json() != \
            clean[0].run_metrics.to_json()

    def test_default_schedule_is_part_of_the_fingerprint(self):
        task = RunTask(SpecJBB(warehouses=2), "2f-2s/8", 42)
        bare = task_fingerprint(task)
        faulted = task_fingerprint(replace(
            task, options=RunOptions(faults=golden_fault_schedule())))
        assert bare != faulted
        assert task_fingerprint(task) == bare


def test_exhibit_storm_outranks_the_run_schedule():
    """A storm exhibit puts its own storm on its stormy tasks in place
    of the run's schedule (``--faults``); its clean tasks keep it."""
    results = []
    backend = SerialBackend(
        options=RunOptions(faults=golden_fault_schedule()), sink=results)
    data = fig12_locks.run(replace(QUICK, lockstress_seconds=0.2),
                           backend=backend)
    counters = iter(result.run_metrics.counters for result in results)
    for name in data["series"]:
        for _ in range(data["runs"]):
            booked = next(counters)
            if name.endswith("+storm"):
                assert booked.get("faults.throttle", 0) > 0, name
                assert booked.get("faults.offline", 0) == 0, name
            else:
                assert booked.get("faults.offline", 0) == 1, name
    assert next(counters, None) is None


class TestCli:
    def test_faults_flag_installs_and_clears_schedule(self, tmp_path,
                                                      capsys,
                                                      monkeypatch):
        from repro.__main__ import main as cli_main
        from repro.experiments import parallel
        path = tmp_path / "storm.json"
        golden_fault_schedule().save(str(path))
        schedules = []
        execute = parallel.execute_task

        def recording_execute(task):
            schedules.append(task.options.faults.to_json())
            return execute(task)

        monkeypatch.setattr(parallel, "execute_task", recording_execute)
        assert cli_main(["fig09", "--faults", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fault schedule: 5 events" in out
        assert schedules
        assert set(schedules) == {golden_fault_schedule().to_json()}
        # Nothing outlives the invocation: a later task runs clean.
        assert RunTask(SpecJBB(warehouses=2), "2f-2s/8", 42) \
            .options.faults is None

    def test_injector_repr_and_applied_counter(self):
        system = System.build("2f-2s/8", seed=5)
        injector = golden_fault_schedule().install(system)
        assert isinstance(injector, FaultInjector)
        assert injector.applied == 0
        _spawn_compute(system, (5e8, 3e8, 2e8))
        system.run()
        assert injector.applied == 5
