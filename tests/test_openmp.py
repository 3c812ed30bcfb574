"""Tests for the OpenMP-style loop runtime."""

import pytest

from repro import System
from repro.errors import ReproError, WorkloadError
from repro.experiments.profiles import QUICK
from repro.faults import FaultSchedule, ThrottleEvent
from repro.runtime.openmp import (
    Loop,
    LoopSchedule,
    OmpProgram,
    OmpTeam,
    Serial,
)
from repro.machine import DEFAULT_FREQUENCY_HZ

ITER_SECOND = DEFAULT_FREQUENCY_HZ  # cycles: 1 second on a fast core


def team_for(config, seed=0, **kwargs):
    system = System.build(config, seed=seed)
    kwargs.setdefault("dispatch_overhead_cycles", 0.0)
    kwargs.setdefault("fork_overhead_cycles", 0.0)
    return system, OmpTeam(system, **kwargs)


class TestLoopConstruction:
    def test_negative_iterations_rejected(self):
        with pytest.raises(WorkloadError):
            Loop(-1, 100)

    def test_bad_chunk_rejected(self):
        with pytest.raises(WorkloadError):
            Loop(10, 100, chunk=0)

    def test_total_cycles_scalar(self):
        assert Loop(10, 100).total_cycles() == 1000

    def test_total_cycles_callable(self):
        loop = Loop(4, lambda i: 10.0 * (i + 1))
        assert loop.total_cycles() == 100.0
        assert loop.range_cycles(1, 3) == 50.0

    def test_with_schedule_preserves_structure(self):
        loop = Loop(10, 100, nowait=True, name="hot")
        changed = loop.with_schedule(LoopSchedule.DYNAMIC, chunk=2)
        assert changed.schedule is LoopSchedule.DYNAMIC
        assert changed.chunk == 2
        assert changed.nowait and changed.name == "hot"

    def test_serial_fraction(self):
        program = OmpProgram([Serial(100), Loop(9, 100)])
        assert program.serial_fraction() == pytest.approx(0.1)

    def test_program_with_schedule_rewrites_all_loops(self):
        program = OmpProgram([Serial(10), Loop(4, 1), Loop(8, 1)])
        rewritten = program.with_schedule(LoopSchedule.DYNAMIC, chunk=1)
        kinds = [item.schedule for item in rewritten.items
                 if isinstance(item, Loop)]
        assert kinds == [LoopSchedule.DYNAMIC, LoopSchedule.DYNAMIC]


class TestStaticSchedule:
    def test_symmetric_machine_perfect_speedup(self):
        system, team = team_for("4f-0s")
        program = OmpProgram([Loop(4, ITER_SECOND)])
        elapsed = team.execute(program)
        assert elapsed == pytest.approx(1.0, rel=1e-6)

    def test_asymmetric_machine_limited_by_slowest_core(self):
        # Paper §3.5: "While all processors get equal work, they do not
        # have the same performance" — static is slowest-core bound.
        system, team = team_for("2f-2s/8")
        program = OmpProgram([Loop(4, ITER_SECOND)])
        elapsed = team.execute(program)
        assert elapsed == pytest.approx(8.0, rel=1e-6)

    def test_static_matches_all_slow_machine(self):
        # 2f-2s/8 static runtime equals 0f-4s/8 (the Figure 8a shape).
        _, team_asym = team_for("2f-2s/8", seed=1)
        _, team_slow = team_for("0f-4s/8", seed=2)
        program = OmpProgram([Loop(8, ITER_SECOND / 2)])
        asym = team_asym.execute(program)
        slow = team_slow.execute(program)
        assert asym == pytest.approx(slow, rel=1e-6)

    def test_ammp_style_remainder_split(self):
        # 6 iterations over 4 threads: threads 0,1 (fast cores) take 2
        # each, threads 2,3 (slow cores) one each — the paper's
        # observed "lucky" ammp mapping (§3.5).
        system, team = team_for("2f-2s/8")
        program = OmpProgram([Loop(6, ITER_SECOND)])
        elapsed = team.execute(program)
        # fast cores: 2 iters at 1s = 2s; slow cores: 1 iter at 8s.
        assert elapsed == pytest.approx(8.0, rel=1e-6)

    def test_zero_iteration_loop_is_instant(self):
        system, team = team_for("4f-0s")
        elapsed = team.execute(OmpProgram([Loop(0, ITER_SECOND)]))
        assert elapsed == pytest.approx(0.0)


class TestDynamicSchedule:
    def test_work_flows_to_fast_cores(self):
        # Dynamic chunks let the machine run at ~total compute power:
        # 64 iterations of 0.125s on 2f-2s/8 (power 2.25) ≈ 3.6s,
        # far below the 8-second static bound.
        system, team = team_for("2f-2s/8")
        program = OmpProgram([
            Loop(64, ITER_SECOND / 8, schedule=LoopSchedule.DYNAMIC,
                 chunk=1)])
        elapsed = team.execute(program)
        ideal = 64 * 0.125 / 2.25
        assert elapsed < 0.75 * 8.0  # decisively beats static
        assert elapsed == pytest.approx(ideal, rel=0.35)

    def test_chunks_taken_proportional_to_speed(self):
        system, team = team_for("2f-2s/8")
        program = OmpProgram([
            Loop(72, ITER_SECOND / 16, schedule=LoopSchedule.DYNAMIC,
                 chunk=1)])
        team.execute(program)
        fast = team.chunks_taken[0] + team.chunks_taken[1]
        slow = team.chunks_taken[2] + team.chunks_taken[3]
        assert fast > 4 * slow

    def test_dispatch_overhead_charged_per_chunk(self):
        system = System.build("4f-0s")
        team = OmpTeam(system, dispatch_overhead_cycles=ITER_SECOND / 100,
                       fork_overhead_cycles=0.0)
        program = OmpProgram([
            Loop(100, 0.0, schedule=LoopSchedule.DYNAMIC, chunk=1)])
        elapsed = team.execute(program)
        assert elapsed > 0.2  # 100 grabs * 10ms spread over 4 threads

    def test_larger_chunks_reduce_overhead(self):
        def run(chunk):
            system = System.build("4f-0s")
            team = OmpTeam(system,
                           dispatch_overhead_cycles=ITER_SECOND / 100,
                           fork_overhead_cycles=0.0)
            program = OmpProgram([
                Loop(128, ITER_SECOND / 1000,
                     schedule=LoopSchedule.DYNAMIC, chunk=chunk)])
            return team.execute(program)
        assert run(16) < run(1)


class TestGuidedSchedule:
    def test_guided_beats_static_on_asymmetric(self):
        program = OmpProgram([
            Loop(64, ITER_SECOND / 8, schedule=LoopSchedule.GUIDED)])
        _, static_team = team_for("2f-2s/8", seed=1)
        static_elapsed = static_team.execute(
            program.with_schedule(LoopSchedule.STATIC))
        _, guided_team = team_for("2f-2s/8", seed=1)
        guided_elapsed = guided_team.execute(program)
        assert guided_elapsed < static_elapsed

    def test_guided_chunks_shrink(self):
        system, team = team_for("4f-0s")
        program = OmpProgram([
            Loop(256, ITER_SECOND / 1000, schedule=LoopSchedule.GUIDED)])
        team.execute(program)
        # Guided grabs far fewer chunks than iterations.
        assert 4 <= sum(team.chunks_taken) < 256

    def test_guided_tail_hurts_on_asymmetric(self):
        # A slow core grabbing a same-size chunk near the end strands
        # the fast cores at the barrier: guided is worse than dynamic
        # with small chunks on a strongly asymmetric machine.
        def run(schedule, chunk=None):
            system, team = team_for("1f-3s/8", seed=3)
            program = OmpProgram([
                Loop(64, ITER_SECOND / 8, schedule=schedule, chunk=chunk)])
            return team.execute(program)
        assert run(LoopSchedule.DYNAMIC, chunk=1) <= \
            run(LoopSchedule.GUIDED) + 1e-9


class TestSerialSections:
    def test_serial_runs_on_master_core(self):
        # Master (thread 0) is pinned to core 0, which is fast on any
        # nf>0 machine: serial time is 1s, not 8s.
        system, team = team_for("1f-3s/8")
        program = OmpProgram([Serial(ITER_SECOND)])
        elapsed = team.execute(program)
        assert elapsed == pytest.approx(1.0, rel=1e-6)

    def test_serial_orders_between_loops(self):
        system, team = team_for("4f-0s")
        program = OmpProgram([
            Loop(4, ITER_SECOND / 4),
            Serial(ITER_SECOND / 2),
            Loop(4, ITER_SECOND / 4),
        ])
        elapsed = team.execute(program)
        assert elapsed == pytest.approx(0.25 + 0.5 + 0.25, rel=1e-6)

    def test_fast_core_accelerates_serial_portion(self):
        # The paper's point 3: a 1f-3s/8 machine beats 0f-4s/8 chiefly
        # on serial sections.
        program = OmpProgram([
            Serial(ITER_SECOND),
            Loop(32, ITER_SECOND / 8, schedule=LoopSchedule.DYNAMIC,
                 chunk=1),
        ])
        _, asym = team_for("1f-3s/8", seed=1)
        asym_time = asym.execute(program)
        _, slow = team_for("0f-4s/8", seed=1)
        slow_time = slow.execute(program)
        assert asym_time < slow_time
        # Serial alone accounts for a 7-second gap.
        assert slow_time - asym_time > 5.0

    def test_nowait_lets_fast_threads_run_ahead(self):
        # Two short-body loops with nowait on the first: fast threads
        # flow into the second loop; total is below the sum of two
        # slowest-bound loops when work is grabbed dynamically after.
        def run(nowait):
            system, team = team_for("2f-2s/8", seed=2)
            program = OmpProgram([
                Loop(4, ITER_SECOND / 4, nowait=nowait),
                Loop(32, ITER_SECOND / 16,
                     schedule=LoopSchedule.DYNAMIC, chunk=1),
            ])
            return team.execute(program)
        assert run(True) < run(False)


class TestStaticWeighted:
    def test_matches_static_on_symmetric_machine(self):
        program = OmpProgram([Loop(8, ITER_SECOND / 4)])
        _, static_team = team_for("4f-0s", seed=1)
        _, weighted_team = team_for("4f-0s", seed=1)
        static = static_team.execute(
            program.with_schedule(LoopSchedule.STATIC))
        weighted = weighted_team.execute(
            program.with_schedule(LoopSchedule.STATIC_WEIGHTED))
        assert weighted == pytest.approx(static, rel=1e-9)

    def test_split_proportional_to_speed(self):
        # 2f-2s/8 (rates 1, 1, 1/8, 1/8): of 36 iterations the fast
        # threads get 16 each and the slow threads 2 each, so every
        # member finishes its share in the same wall time.
        system, team = team_for("2f-2s/8")
        program = OmpProgram([
            Loop(36, ITER_SECOND / 16,
                 schedule=LoopSchedule.STATIC_WEIGHTED)])
        elapsed = team.execute(program)
        assert elapsed == pytest.approx(1.0, rel=1e-6)

    def test_rereads_speed_at_loop_entry(self):
        # A permanent throttle landing between two loops changes the
        # second loop's split: with core 0 slowed to 1/8 the fast
        # share moves to cores 1..3.
        def run(throttled):
            system, team = team_for("4f-0s", seed=1)
            if throttled:
                FaultSchedule([ThrottleEvent(
                    time=0.0, core=0,
                    duty_cycle=1 / 8)]).install(system)
            program = OmpProgram([
                Loop(32, ITER_SECOND / 8,
                     schedule=LoopSchedule.STATIC_WEIGHTED)])
            return team.execute(program)
        clean = run(False)
        throttled = run(True)
        # Weighted split adapts: runtime grows by ~(32/31)*4/3, far
        # less than the 8x collapse an equal split would suffer.
        assert throttled < 2.0 * clean

    def test_straggler_cycles_counter_small(self):
        system, team = team_for("2f-2s/8")
        program = OmpProgram([
            Loop(36, ITER_SECOND / 16,
                 schedule=LoopSchedule.STATIC_WEIGHTED)])
        team.execute(program)
        straggler = system.counters.get("omp.straggler_cycles")
        # The proportional split leaves no straggler tail here.
        assert straggler < ITER_SECOND / 100


class TestDispatchAccounting:
    def test_dispatch_cycles_booked_per_grab(self):
        system = System.build("4f-0s")
        team = OmpTeam(system, dispatch_overhead_cycles=1000.0,
                       fork_overhead_cycles=0.0)
        program = OmpProgram([
            Loop(40, ITER_SECOND / 1000,
                 schedule=LoopSchedule.DYNAMIC, chunk=1)])
        team.execute(program)
        assert system.counters.get("omp.chunks_dispatched") == 40.0
        assert system.counters.get("omp.dispatch_cycles") == \
            pytest.approx(40 * 1000.0)

    def test_zero_overhead_books_no_dispatch_cycles(self):
        system, team = team_for("4f-0s")
        program = OmpProgram([
            Loop(8, ITER_SECOND / 100,
                 schedule=LoopSchedule.DYNAMIC, chunk=1)])
        team.execute(program)
        assert "omp.dispatch_cycles" not in system.counters.as_dict()

    def test_dispatch_cycles_conserved(self):
        from tests.harness import assert_conservation
        system = System.build("2f-2s/8")
        team = OmpTeam(system)
        program = OmpProgram([
            Loop(64, ITER_SECOND / 32,
                 schedule=LoopSchedule.GUIDED)])
        team.execute(program)
        assert system.counters.get("omp.dispatch_cycles") > 0
        assert_conservation(system.run_metrics())


class TestFig13Recovery:
    def test_static_weighted_recovers_static_asymmetry_gap(self):
        # fig13's acceptance bar, on a trimmed sweep: on a clean
        # machine static_weighted wins back >= 70% of the
        # symmetric-vs-asymmetric makespan gap static leaves on
        # 2f-2s/8 (measured: 88.8% on every seed).  Under storms the
        # entry-time split goes stale and its recovery depends on the
        # seed, so the storm check is on dynamic, which rebalances on
        # demand (lowest over seeds 0-24: 71.1%).
        from repro.experiments.figures import fig13_omp_scheduling

        data = fig13_omp_scheduling.run(
            configs=("4f-0s", "2f-2s/8"),
            policies=("static", "dynamic", "static_weighted"), runs=1)
        recovery = fig13_omp_scheduling.recovered_fraction(data)
        assert recovery >= fig13_omp_scheduling.RECOVERY_BAR
        assert fig13_omp_scheduling.recovered_fraction(
            data, "dynamic", mode="storm") > 0.5

    def test_missed_recovery_bar_raises_repro_error(self, monkeypatch):
        # The bar is a raised ReproError, not an assert, so it still
        # fails the run under `python -O`.  This sweep recovers 88.8%.
        from repro.experiments.figures import fig13_omp_scheduling as fig13

        monkeypatch.setattr(fig13, "RECOVERY_BAR", 0.95)
        with pytest.raises(ReproError, match="recovered only 88.8%"):
            fig13.run(QUICK, configs=[fig13.SYMMETRIC, fig13.CONFIG],
                      policies=("static", "static_weighted"), runs=1)


class TestTeamConfiguration:
    def test_team_size_defaults_to_core_count(self):
        system = System.build("4f-0s")
        assert OmpTeam(system).n_threads == 4

    def test_invalid_team_size_rejected(self):
        system = System.build("4f-0s")
        with pytest.raises(WorkloadError):
            OmpTeam(system, n_threads=0)

    def test_execution_is_deterministic(self):
        def run():
            system, team = team_for("2f-2s/4", seed=9)
            program = OmpProgram([
                Loop(48, ITER_SECOND / 12,
                     schedule=LoopSchedule.DYNAMIC, chunk=2),
                Serial(ITER_SECOND / 10),
                Loop(16, ITER_SECOND / 8),
            ])
            return team.execute(program)
        assert run() == run()

    def test_pinned_team_is_seed_independent(self):
        # Pinning removes all placement randomness: SPEC OMP stability.
        results = {
            round(team_for("2f-2s/8", seed=seed)[1].execute(
                OmpProgram([Loop(8, ITER_SECOND / 4)])), 9)
            for seed in range(5)
        }
        assert len(results) == 1
