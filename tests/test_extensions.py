"""Tests for the paper's §4 extension investigations.

Two items the paper flags as future work are implemented and verified
here: arbitrary duty-cycle mixes (the hardware's full 7-step range),
and asymmetry-aware scheduling from *relative* speed information only.
"""

import pytest

from repro import System
from repro.errors import ConfigurationError
from repro.kernel import (
    AsymmetryAwareScheduler,
    Compute,
    RankOnlyAsymmetryScheduler,
    SimThread,
)
from repro.machine import (
    ASYMMETRIC_CONFIG_LABELS,
    DEFAULT_FREQUENCY_HZ,
    STANDARD_CONFIG_LABELS,
    Machine,
)
from repro.runtime.jvm import GCKind
from repro.workloads import SpecJBB
from tests import harness

ONE_SECOND = DEFAULT_FREQUENCY_HZ


def spin(cycles):
    yield Compute(cycles)


class TestCustomMachines:
    def test_full_duty_cycle_range(self):
        machine = Machine.custom([1.0, 0.875, 0.375, 0.125])
        assert [c.duty_cycle for c in machine.cores] == \
            [1.0, 0.875, 0.375, 0.125]
        assert machine.label == "custom[1,0.875,0.375,0.125]"

    def test_snapping_applies(self):
        machine = Machine.custom([0.3, 0.99])
        assert [c.duty_cycle for c in machine.cores] == [0.25, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Machine.custom([])

    def test_total_rate_reflects_mix(self):
        machine = Machine.custom([1.0, 0.5])
        assert machine.total_rate == pytest.approx(
            1.5 * DEFAULT_FREQUENCY_HZ)

    def test_kernel_runs_on_custom_machine(self):
        machine = Machine.custom([1.0, 0.5, 0.25, 0.125])
        system = System(machine, seed=1)
        thread = system.kernel.spawn(SimThread(
            "t", spin(ONE_SECOND), affinity=frozenset([1])))
        system.run()
        assert thread.finish_time == pytest.approx(2.0)

    def test_duty_sweep_is_monotonic(self):
        # Slowing one core through the full modulation range slows a
        # saturated machine monotonically.
        makespans = []
        for duty in (1.0, 0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125):
            machine = Machine.custom([1.0, 1.0, 1.0, duty])
            system = System(machine, seed=1)
            for i in range(8):
                system.kernel.spawn(SimThread(f"t{i}",
                                              spin(ONE_SECOND / 2)))
            makespans.append(system.run())
        assert makespans == sorted(makespans)


class TestRankOnlyScheduler:
    """Paper §4: relative speed information "may be sufficient"."""

    def _run(self, factory, seed, config="2f-2s/8"):
        system = System.build(config, seed=seed, scheduler=factory())
        threads = [system.kernel.spawn(SimThread(
            f"t{i}", spin(ONE_SECOND / (i + 1)))) for i in range(6)]
        system.run()
        return [round(t.finish_time, 9) for t in threads]

    def _decisions(self, factory, seed, config):
        """Finish times, pull migrations and the event stream (count
        and digest) of one run."""
        scheduler = factory()
        finish = []
        stream = harness.record_event_stream(lambda: finish.extend(
            self._run(lambda: scheduler, seed, config)))
        return finish, scheduler.kernel.preempt_pulls, stream

    @pytest.mark.parametrize("config", STANDARD_CONFIG_LABELS)
    def test_identical_decisions_to_full_information(self, config):
        pulls = 0
        for seed in range(4):
            full = self._decisions(AsymmetryAwareScheduler, seed, config)
            rank = self._decisions(RankOnlyAsymmetryScheduler, seed,
                                   config)
            assert full == rank, (config, seed)
            pulls += full[1]
        # Pull migration needs a strictly slower core, so it runs on
        # every asymmetric machine and never on a symmetric one.
        assert (pulls > 0) == (config in ASYMMETRIC_CONFIG_LABELS)

    def test_explicit_ranking_accepted(self):
        # 2f-2s/8: cores {0,1} fast, {2,3} slow — ranking as groups.
        factory = lambda: RankOnlyAsymmetryScheduler(  # noqa: E731
            ranking=[[0, 1], [2, 3]])
        times = self._run(factory, seed=0)
        reference = self._run(AsymmetryAwareScheduler, seed=0)
        assert times == reference

    def test_no_pulls_between_same_rank_cores(self):
        system = System.build("4f-0s", seed=0,
                              scheduler=RankOnlyAsymmetryScheduler())
        for i in range(8):
            system.kernel.spawn(SimThread(f"t{i}", spin(ONE_SECOND / 4)))
        system.run()
        assert system.kernel.preempt_pulls == 0

    def test_fixes_specjbb_like_full_information(self):
        workload = SpecJBB(warehouses=6, gc=GCKind.CONCURRENT,
                           measurement_seconds=1.0)
        values = [workload.run_once(
            "2f-2s/8", seed=s,
            scheduler_factory=RankOnlyAsymmetryScheduler)
            .metric("throughput") for s in range(4)]
        spread = (max(values) - min(values)) / max(values)
        assert spread < 0.05
