"""Quantum coalescing: byte-identity with the sliced kernel.

The kernel's macro-slice fast path (``repro.kernel.kernel``) replaces
per-quantum events with one closed-form slice whenever a thread runs
uncontended.  Its contract is *observational equivalence*: metrics,
latency histograms, scheduler traces and Chrome trace exports must be
byte-identical to per-quantum slicing — coalescing may only change how
fast the simulator gets there.  These tests hold that contract down:

* a panel over two scenarios × the paper's nine machine
  configurations × both scheduler policies × (clean | golden fault
  storm), comparing the full observable surface of coalesced vs sliced
  runs, and checking between every two events that no coalesced core
  has a thread queued (the invariant that lets schedulers read
  runqueues directly);
* round-robin rotations on contended cores: contended cores run
  per-quantum slices in both modes, but their queues drain at
  different times, so coalesced runs arm macro slices on the emptied
  cores while contenders still rotate elsewhere, and wakeups and
  faults occasionally split one.  The panel's ``contended`` scenario
  holds that down, hypothesis property tests land random wakeups and
  random throttle storms inside rotations, and the
  ``coalesce.macro_fallback`` regression counter stays zero on every
  standard configuration;
* deterministic unit tests for the re-split paths (a wakeup landing on
  a coalesced core mid-window, pull migration absorbing a macro);
* the engagement guarantee the benchmarks rely on (uncontended runs
  fire an order of magnitude fewer events; contended cores slice);
* the plumbing: ``REPRO_NO_COALESCE``, the ``coalesce`` override,
  ``RunOptions.coalesce`` and the result-cache fingerprint folding
  the mode.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import System
from repro.experiments.parallel import RunTask, task_fingerprint
from repro.faults import FaultSchedule
from repro.kernel import (
    AsymmetryAwareScheduler,
    Compute,
    SimThread,
    SymmetricScheduler,
)
from repro.kernel import kernel as _kernel
from repro.kernel.instructions import Sleep
from repro.machine.topology import STANDARD_CONFIG_LABELS
from repro.sim import trace as _trace
from repro.workloads.base import RunOptions
from repro.workloads.specjbb import SpecJBB

from tests.harness import (
    assert_conservation,
    canonical_json,
    golden_fault_schedule,
    macro_queue_violations,
    observed_surface,
)

SCHEDULERS = {
    "stock": SymmetricScheduler,
    "asym": AsymmetryAwareScheduler,
}


def _mixed_threads(kernel) -> None:
    """A small scenario touching every coalescing-relevant regime.

    Early contention (macros refused), a sleeper whose wake timer caps
    a window, staggered completions that leave lone long-runners (the
    coalesced tail), and under the asymmetry-aware policy an idle fast
    core pulling a running thread off a coalesced slow core.
    """

    def spin(cycles):
        yield Compute(cycles)

    def nap_then_spin(head, seconds, tail):
        yield Compute(head)
        yield Sleep(seconds)
        yield Compute(tail)

    kernel.spawn(SimThread("long0", spin(3.0e8)))
    kernel.spawn(SimThread("long1", spin(2.2e8)))
    kernel.spawn(SimThread("napper", nap_then_spin(0.4e8, 0.013, 1.1e8)))
    kernel.spawn(SimThread("short", spin(0.5e8)))
    kernel.spawn(SimThread("late", nap_then_spin(0.2e8, 0.031, 0.9e8)))


def _contended_threads(kernel) -> None:
    """A runqueue-heavy scenario.

    Twelve staggered spinners keep every core's runqueue deep (and
    leave a coalesced tail as they drain), while two sleepers wake
    mid-run.
    """

    def spin(cycles):
        yield Compute(cycles)

    def nap_then_spin(head, seconds, tail):
        yield Compute(head)
        yield Sleep(seconds)
        yield Compute(tail)

    for index in range(12):
        kernel.spawn(SimThread(f"spin{index}",
                               spin((1.1 + 0.13 * index) * 1e8)))
    kernel.spawn(SimThread("napper",
                           nap_then_spin(0.3e8, 0.017, 1.2e8)))
    kernel.spawn(SimThread("late",
                           nap_then_spin(0.1e8, 0.042, 0.8e8)))


#: The panel's scenarios: name -> (spawn, seed).
SCENARIOS = {
    "mixed": (_mixed_threads, 13),
    "contended": (_contended_threads, 17),
}

#: scenario × config × scheduler.  The mixed cases are named
#: ``[config-scheduler]``; the others carry their scenario first.
PANEL = [
    pytest.param(scenario, config, scheduler_name,
                 id=("" if scenario == "mixed" else f"{scenario}-")
                 + f"{config}-{scheduler_name}")
    for scenario in SCENARIOS
    for config in STANDARD_CONFIG_LABELS
    for scheduler_name in sorted(SCHEDULERS)
]


def _observed(scenario: str, config: str, scheduler_name: str,
              coalesce: bool, faults: bool) -> str:
    """Canonical JSON of everything a run exposes to an observer."""
    spawn, seed = SCENARIOS[scenario]
    return observed_surface(config, SCHEDULERS[scheduler_name](), seed,
                            coalesce, faults, spawn)


@pytest.mark.parametrize("scenario,config,scheduler_name", PANEL)
def test_panel_byte_identity(scenario, config, scheduler_name):
    coalesced = _observed(scenario, config, scheduler_name, True,
                          faults=False)
    sliced = _observed(scenario, config, scheduler_name, False,
                       faults=False)
    assert coalesced == sliced


@pytest.mark.parametrize("scenario,config,scheduler_name", PANEL)
def test_fault_storm_byte_identity(scenario, config, scheduler_name):
    coalesced = _observed(scenario, config, scheduler_name, True,
                          faults=True)
    sliced = _observed(scenario, config, scheduler_name, False,
                       faults=True)
    assert coalesced == sliced


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("config", STANDARD_CONFIG_LABELS)
def test_macro_cores_keep_empty_runqueues(config, scheduler_name):
    """Steal and pull read ``Kernel.runqueues`` directly; that is safe
    only because no macro slice outlives a contender's arrival.  The
    panel runs untraced here, the way exhibits run."""
    for faults in (False, True):
        def run():
            system = System.build(config, seed=13,
                                  scheduler=SCHEDULERS[scheduler_name](),
                                  coalesce=True)
            if faults:
                golden_fault_schedule().install(system)
            _mixed_threads(system.kernel)
            system.run()

        violations = macro_queue_violations(run)
        assert not violations, violations[:5]


def test_workload_run_byte_identity():
    """End-to-end through a real workload's ``run_once`` path."""
    workload = SpecJBB(warehouses=2, measurement_seconds=0.3,
                       warmup_seconds=0.1)
    sliced = workload.run_once("2f-2s/8", seed=42,
                               options=RunOptions(coalesce=False))
    coalesced = workload.run_once("2f-2s/8", seed=42,
                                  options=RunOptions(coalesce=True))
    assert coalesced.run_metrics.to_json() == sliced.run_metrics.to_json()
    assert coalesced.metrics == sliced.metrics


@pytest.mark.parametrize("config", STANDARD_CONFIG_LABELS)
def test_macro_fallback_stays_zero(config):
    """The defensive fallback in ``_on_macro_end`` never fires on the
    standard configurations (it would silently shed the fast path)."""
    system = System.build(config, seed=17, coalesce=True)
    _contended_threads(system.kernel)
    system.run()
    counters = system.run_metrics().counters
    assert counters.get("coalesce.macro_fallback", 0.0) == 0.0


# ----------------------------------------------------------------------
# Property tests: anything landing inside a rotation keeps identity
# ----------------------------------------------------------------------
CONFIG_ST = st.sampled_from(list(STANDARD_CONFIG_LABELS))
SCHEDULER_ST = st.sampled_from(sorted(SCHEDULERS))


def _randomized_observed(config: str, scheduler_name: str,
                         coalesce: bool, wake_after: float,
                         head_cycles: float,
                         storm_seed) -> str:
    """One contended run with a randomized mid-rotation wakeup."""

    def spin(cycles):
        yield Compute(cycles)

    def waker():
        yield Compute(head_cycles)
        yield Sleep(wake_after)
        yield Compute(0.9e8)

    system = System.build(config, seed=23,
                          scheduler=SCHEDULERS[scheduler_name](),
                          coalesce=coalesce)
    system.sim.tracer.enable(*_trace.DEFAULT_TRACE_CATEGORIES)
    if storm_seed is not None:
        FaultSchedule.throttle_storm(
            storm_seed, 0.25, cores=range(len(system.machine.cores)),
        ).install(system)
    for core in system.machine.cores:
        for slot in range(3):
            system.kernel.spawn(SimThread(
                f"c{core.index}t{slot}", spin(core.rate * 0.22),
                affinity=frozenset([core.index])))
    system.kernel.spawn(SimThread("waker", waker()))
    duration = system.run()
    metrics = system.run_metrics()
    assert_conservation(metrics)
    return canonical_json({"duration": duration,
                           "run_metrics": metrics.as_dict()})


@settings(max_examples=12, deadline=None)
@given(config=CONFIG_ST, scheduler_name=SCHEDULER_ST,
       wake_after=st.floats(min_value=1e-4, max_value=0.2),
       head_cycles=st.floats(min_value=1e6, max_value=2e8))
def test_random_wakeup_inside_rotation_resplits(config, scheduler_name,
                                                wake_after,
                                                head_cycles):
    """A wakeup at an arbitrary time inside a rotation (or a macro
    window on a drained core) lands on byte-identical sliced state."""
    coalesced = _randomized_observed(config, scheduler_name, True,
                                     wake_after, head_cycles, None)
    sliced = _randomized_observed(config, scheduler_name, False,
                                  wake_after, head_cycles, None)
    assert coalesced == sliced


@settings(max_examples=10, deadline=None)
@given(config=CONFIG_ST, scheduler_name=SCHEDULER_ST,
       wake_after=st.floats(min_value=1e-4, max_value=0.2),
       storm_seed=st.integers(0, 2**16))
def test_random_fault_storm_inside_rotation_resplits(config,
                                                     scheduler_name,
                                                     wake_after,
                                                     storm_seed):
    """Random throttle storms (duty-cycle reprogramming mid-rotation
    or mid-macro) leave byte-identical sliced state."""
    coalesced = _randomized_observed(config, scheduler_name, True,
                                     wake_after, 0.4e8, storm_seed)
    sliced = _randomized_observed(config, scheduler_name, False,
                                  wake_after, 0.4e8, storm_seed)
    assert coalesced == sliced


# ----------------------------------------------------------------------
# Engagement: the speedup the benchmarks gate on
# ----------------------------------------------------------------------
def _lone_spin_run(coalesce: bool, threads: int = 4):
    def spin(cycles):
        yield Compute(cycles)

    system = System.build("2f-2s/8", seed=1, coalesce=coalesce)
    for index in range(threads):
        system.kernel.spawn(SimThread(f"t{index}", spin(2.8e9)))
    system.run()
    return system


def test_uncontended_runs_coalesce():
    """One thread per core: macro slices replace per-quantum events."""
    coalesced = _lone_spin_run(True)
    sliced = _lone_spin_run(False)
    assert coalesced.sim.events_fired < sliced.sim.events_fired
    assert coalesced.sim.events_fired * 5 <= sliced.sim.events_fired
    assert coalesced.run_metrics().to_json() == \
        sliced.run_metrics().to_json()


def test_contended_runqueues_slice():
    """A core with queued contenders runs per-quantum slices.

    Two threads per core keep every runqueue non-empty for nearly the
    whole run; macro slices arm only in the last slices, where they
    save nothing, so coalesced and sliced runs fire the same number of
    events.
    """
    coalesced = _lone_spin_run(True, threads=8)
    sliced = _lone_spin_run(False, threads=8)
    assert coalesced.sim.events_fired == sliced.sim.events_fired
    assert coalesced.run_metrics().to_json() == \
        sliced.run_metrics().to_json()


def test_unaudited_scheduler_never_coalesces():
    """A policy that does not opt in gets per-quantum slicing."""

    class Strict(SymmetricScheduler):
        name = "strict"
        coalesce_safe = False

    def spin(cycles):
        yield Compute(cycles)

    system = System.build("2f-2s/8", seed=1, scheduler=Strict(),
                          coalesce=True)
    system.kernel.spawn(SimThread("t0", spin(2.8e9)))
    system.run()
    refused = system.sim.events_fired

    system = System.build("2f-2s/8", seed=1, scheduler=Strict(),
                          coalesce=False)
    system.kernel.spawn(SimThread("t0", spin(2.8e9)))
    system.run()
    assert refused == system.sim.events_fired


# ----------------------------------------------------------------------
# Re-split paths, deterministically
# ----------------------------------------------------------------------
def _single_core_system(coalesce: bool) -> System:
    system = System.build("4f-0s", seed=3, coalesce=coalesce)
    for core in system.machine.cores[1:]:
        system.kernel.set_core_offline(core)
    return system


def _resplit_observed(coalesce: bool) -> str:
    """A wakeup enqueued mid-macro-window forces an exact re-split."""

    def spin(cycles):
        yield Compute(cycles)

    system = _single_core_system(coalesce)
    system.sim.tracer.enable(*_trace.DEFAULT_TRACE_CATEGORIES)
    system.kernel.spawn(SimThread("macro", spin(4.0e9)))
    # Run to a point strictly inside the macro window (no other
    # pending events, so the coalesced kernel schedules one slice to
    # instruction completion), then spawn a contender: _make_ready
    # lands on the coalesced core's runqueue and must split the macro
    # on exactly the boundary grid the sliced kernel was already on.
    system.run(until=0.035)
    if coalesce:
        assert system.kernel._macros, "macro fast path never engaged"
    system.kernel.spawn(SimThread("intruder", spin(0.3e9)))
    duration = system.run()
    metrics = system.run_metrics()
    assert_conservation(metrics)
    return canonical_json({
        "duration": duration,
        "run_metrics": metrics.as_dict(),
        "sched_events": [record.as_dict() for record
                         in system.sim.tracer.records("sched")],
    })


def test_wakeup_mid_macro_resplits_exactly():
    assert _resplit_observed(True) == _resplit_observed(False)


def test_observation_mid_macro_is_transparent():
    """Snapshots taken inside a macro window see sliced-identical books
    and leave the macro able to finish correctly."""

    def spin(cycles):
        yield Compute(cycles)

    snapshots = {}
    for coalesce in (True, False):
        system = _single_core_system(coalesce)
        system.kernel.spawn(SimThread("macro", spin(4.0e9)))
        system.run(until=0.0355)
        snapshots[coalesce] = system.run_metrics().to_json()
        if coalesce:
            assert system.kernel._macros, \
                "snapshot catch-up must keep the macro alive"
        system.run()
        snapshots[(coalesce, "final")] = system.run_metrics().to_json()
    assert snapshots[True] == snapshots[False]
    assert snapshots[(True, "final")] == snapshots[(False, "final")]


# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------
def test_env_override_disables_coalescing(monkeypatch):
    monkeypatch.setenv("REPRO_NO_COALESCE", "1")
    assert not _kernel.coalescing_enabled()
    system = System.build("2f-2s/4", seed=0)
    assert system.kernel.coalescing is False
    assert RunOptions().coalesce is False
    monkeypatch.setenv("REPRO_NO_COALESCE", "0")
    assert _kernel.coalescing_enabled()
    assert System.build("2f-2s/4", seed=0).kernel.coalescing is True
    assert RunOptions().coalesce is True


def test_explicit_override_beats_process_default(monkeypatch):
    monkeypatch.setenv("REPRO_NO_COALESCE", "1")
    assert System.build("2f-2s/4", seed=0,
                        coalesce=True).kernel.coalescing is True
    monkeypatch.delenv("REPRO_NO_COALESCE")
    assert System.build("2f-2s/4", seed=0,
                        coalesce=False).kernel.coalescing is False


def test_fingerprint_folds_coalescing_mode(monkeypatch):
    """Cache entries from coalesced and sliced runs never collide."""
    monkeypatch.delenv("REPRO_NO_COALESCE", raising=False)
    task = RunTask(workload=SpecJBB(warehouses=1,
                                    measurement_seconds=0.1,
                                    warmup_seconds=0.05),
                   config="2f-2s/4", seed=9)
    coalesced_key = task_fingerprint(task)
    sliced_key = task_fingerprint(
        replace(task, options=RunOptions(coalesce=False)))
    assert coalesced_key != sliced_key
    assert task_fingerprint(task) == coalesced_key
