"""Unit tests for the machine substrate (cores, duty cycles, topology)."""

import pytest
from hypothesis import given, strategies as st

from repro import System
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule
from repro.kernel import Compute, SimThread
from repro.machine import (
    ASYMMETRIC_CONFIG_LABELS,
    DEFAULT_FREQUENCY_HZ,
    STANDARD_CONFIG_LABELS,
    SUPPORTED_DUTY_CYCLES,
    SYMMETRIC_CONFIG_LABELS,
    Core,
    Machine,
    MachineConfig,
    duty_cycle_for_scale,
    run_microbenchmark,
    snap_duty_cycle,
    standard_configs,
    validate_machine,
)


class TestDutyCycle:
    def test_supported_steps_match_paper(self):
        # Paper §2: 12.5%, 25%, 37.5%, 50%, 62.5%, 75%, 87.5% (+100%).
        assert SUPPORTED_DUTY_CYCLES == (
            0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)

    def test_snap_exact_values(self):
        for step in SUPPORTED_DUTY_CYCLES:
            assert snap_duty_cycle(step) == step

    def test_snap_rounds_to_nearest(self):
        assert snap_duty_cycle(0.3) == 0.25
        assert snap_duty_cycle(0.33) == 0.375
        assert snap_duty_cycle(0.99) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_snap_rejects_out_of_range(self, bad):
        with pytest.raises(ConfigurationError):
            snap_duty_cycle(bad)

    def test_scale_4_gives_quarter_duty(self):
        assert duty_cycle_for_scale(4) == 0.25

    def test_scale_8_gives_eighth_duty(self):
        assert duty_cycle_for_scale(8) == 0.125

    def test_scale_1_gives_full_duty(self):
        assert duty_cycle_for_scale(1) == 1.0

    def test_scale_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            duty_cycle_for_scale(0)

    @given(st.floats(min_value=0.01, max_value=1.0))
    def test_snap_always_returns_supported_step(self, fraction):
        assert snap_duty_cycle(fraction) in SUPPORTED_DUTY_CYCLES


class TestCore:
    def test_full_speed_rate(self):
        core = Core(0)
        assert core.rate == DEFAULT_FREQUENCY_HZ

    def test_modulated_rate(self):
        core = Core(1, duty_cycle=0.125)
        assert core.rate == pytest.approx(DEFAULT_FREQUENCY_HZ / 8)

    def test_set_duty_cycle_snaps_and_refreshes_rate(self):
        core = Core(0)
        assert core.duty_cycle == 1.0
        assert core.set_duty_cycle(0.26) == 0.25
        assert core.duty_cycle == 0.25
        assert core.rate == DEFAULT_FREQUENCY_HZ * 0.25
        assert core.set_duty_cycle(1.0) == 1.0
        assert core.rate == DEFAULT_FREQUENCY_HZ

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1,
                    max_size=8))
    def test_stored_rate_tracks_every_reprogramming(self, duties):
        core = Core(0, duty_cycle=0.5, frequency_hz=2.0e9)
        for duty in duties:
            snapped = core.set_duty_cycle(duty)
            # Exactly the product the kernel's slice arithmetic uses.
            assert core.rate == core.frequency_hz * snapped
            assert core.relative_speed == snapped

    def test_seconds_for_cycles_roundtrip(self):
        core = Core(0, duty_cycle=0.25)
        seconds = core.seconds_for_cycles(1e9)
        assert core.cycles_in_seconds(seconds) == pytest.approx(1e9)

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            Core(0).seconds_for_cycles(-1)

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            Core(0).cycles_in_seconds(-1)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            Core(0, frequency_hz=0)

    def test_slow_core_is_8x_slower(self):
        fast, slow = Core(0), Core(1, duty_cycle=0.125)
        work = 5e9
        assert slow.seconds_for_cycles(work) == pytest.approx(
            8 * fast.seconds_for_cycles(work))


def _compute(cycles):
    yield Compute(cycles)


def _rates_current(system):
    """Every core's stored rate is its current frequency x duty cycle,
    and every open compute slice runs at its core's current rate."""
    for core in system.machine.cores:
        assert core.rate == core.frequency_hz * core.duty_cycle
        piece = system.kernel._slices.get(core.index)
        if piece is not None:
            assert piece.rate == core.rate, core.index


class TestStoredRate:
    """``Core.rate`` is stored, not derived on each read, so every path
    that changes a core's speed must leave it current."""

    def test_custom_machine(self):
        machine = Machine.custom([1.0, 0.6, 0.3, 0.125], frequency_hz=2e9)
        assert [core.duty_cycle for core in machine.cores] == \
            [1.0, 0.625, 0.25, 0.125]
        for core in machine.cores:
            assert core.rate == 2e9 * core.duty_cycle
        assert machine.fastest_rate == 2e9
        assert machine.slowest_rate == 2e9 * 0.125

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_reprogram_core_mid_slice(self, coalesce):
        system = System.build("2f-2s/8", seed=1, coalesce=coalesce)
        for index in range(4):
            system.kernel.spawn(SimThread(f"t{index}", _compute(2e8)))
        system.run(until=0.015)
        core = system.machine.cores[0]
        assert system.kernel.reprogram_core(core, 0.3) == 0.25
        assert core.rate == core.frequency_hz * 0.25
        _rates_current(system)
        system.run()
        assert system.run_metrics().conservation_errors() == []

    def test_throttle_storm(self):
        system = System.build("2f-2s/8", seed=5)
        FaultSchedule.throttle_storm(
            seed=5, duration=0.5, cores=range(4),
            events_per_second=40.0).install(system)
        kernel = system.kernel
        reprogram = kernel.reprogram_core
        snapped = []

        def checked(core, duty_cycle):
            snapped.append(reprogram(core, duty_cycle))
            _rates_current(system)
            return snapped[-1]

        kernel.reprogram_core = checked
        for index in range(6):
            kernel.spawn(SimThread(f"t{index}", _compute(4e8)))
        system.run()
        # Throttles and recoveries both went through the check.
        assert len(snapped) > 10
        assert len(set(snapped)) > 2
        assert system.run_metrics().conservation_errors() == []


class TestMachineConfig:
    @pytest.mark.parametrize("label,fast,slow,scale,power", [
        ("4f-0s", 4, 0, 1, 4.0),
        ("3f-1s/4", 3, 1, 4, 3.25),
        ("3f-1s/8", 3, 1, 8, 3.125),
        ("2f-2s/4", 2, 2, 4, 2.5),
        ("2f-2s/8", 2, 2, 8, 2.25),
        ("1f-3s/4", 1, 3, 4, 1.75),
        ("1f-3s/8", 1, 3, 8, 1.375),
        ("0f-4s/4", 0, 4, 4, 1.0),
        ("0f-4s/8", 0, 4, 8, 0.5),
    ])
    def test_parse_standard_labels(self, label, fast, slow, scale, power):
        config = MachineConfig.parse(label)
        assert (config.fast, config.slow) == (fast, slow)
        if slow:
            assert config.scale == scale
        assert config.total_compute_power == pytest.approx(power)
        assert config.label == label

    def test_symmetry_classification(self):
        for label in SYMMETRIC_CONFIG_LABELS:
            assert MachineConfig.parse(label).is_symmetric, label
        for label in ASYMMETRIC_CONFIG_LABELS:
            assert not MachineConfig.parse(label).is_symmetric, label

    @pytest.mark.parametrize("bad", ["", "4f", "4f-0s/", "f-s", "4f+0s",
                                     "2f-2s/0"])
    def test_malformed_labels_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            MachineConfig.parse(bad)

    def test_zero_core_machine_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(fast=0, slow=0)

    def test_slow_cores_at_scale_1_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(fast=2, slow=2, scale=1)

    def test_core_speeds_ordering(self):
        config = MachineConfig.parse("2f-2s/4")
        assert config.core_speeds() == [1.0, 1.0, 0.25, 0.25]

    def test_standard_configs_cover_paper(self):
        labels = [config.label for config in standard_configs()]
        assert labels == list(STANDARD_CONFIG_LABELS)
        assert len(labels) == 9

    def test_power_decreases_left_to_right(self):
        # Figure 10's x-axis ordering: total power decreases.
        powers = [MachineConfig.parse(label).total_compute_power
                  for label in STANDARD_CONFIG_LABELS]
        assert powers == sorted(powers, reverse=True)


class TestMachine:
    def test_builds_fast_cores_first(self):
        machine = Machine.from_label("2f-2s/8")
        assert [core.duty_cycle for core in machine.cores] == \
            [1.0, 1.0, 0.125, 0.125]
        assert machine.n_cores == 4

    def test_total_rate_matches_compute_power(self):
        machine = Machine.from_label("1f-3s/4")
        expected = DEFAULT_FREQUENCY_HZ * 1.75
        assert machine.total_rate == pytest.approx(expected)

    def test_fast_and_slow_partition(self):
        machine = Machine.from_label("3f-1s/8")
        assert len(machine.fast_cores()) == 3
        assert len(machine.slow_cores()) == 1

    def test_symmetric_machine_has_no_slow_cores(self):
        machine = Machine.from_label("0f-4s/8")
        # All equal speed: "slow" is relative to the fastest present.
        assert machine.slow_cores() == []
        assert machine.fastest_rate == machine.slowest_rate

    def test_is_fast_follows_the_current_fastest_rate(self):
        machine = Machine.from_label("2f-2s/8")
        assert [machine.is_fast(core) for core in machine.cores] == \
            [True, True, False, False]
        # A throttled fast core counts as slow while it is throttled.
        machine.cores[0].set_duty_cycle(0.5)
        assert [machine.is_fast(core) for core in machine.cores] == \
            [False, True, False, False]
        assert machine.fast_cores() == [machine.cores[1]]
        # Every core of an all-slow machine is its fastest.
        slow = Machine.from_label("0f-4s/8")
        assert all(slow.is_fast(core) for core in slow.cores)

    def test_cores_by_speed(self):
        machine = Machine.from_label("1f-3s/4")
        rates = [core.rate for core in machine.cores_by_speed()]
        assert rates == sorted(rates, reverse=True)


class TestValidation:
    @pytest.mark.parametrize("label", STANDARD_CONFIG_LABELS)
    def test_all_standard_machines_validate(self, label):
        assert validate_machine(Machine.from_label(label))

    def test_microbenchmark_slowdowns(self):
        results = run_microbenchmark(Machine.from_label("2f-2s/8"))
        slowdowns = [r.measured_slowdown for r in results]
        assert slowdowns == pytest.approx([1.0, 1.0, 8.0, 8.0])

    def test_microbenchmark_runtime_ratio(self):
        results = run_microbenchmark(Machine.from_label("0f-4s/4"))
        # Symmetric machine: every core identical.
        assert len({round(r.runtime, 12) for r in results}) == 1
