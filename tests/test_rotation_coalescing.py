"""Round-robin rotations on contended cores: byte-identity.

A *rotation* here is one round-robin cycle of a contended core's
runqueue.  Contended cores run per-quantum slices in both execution
modes, but their queues drain at different times, so coalesced runs
arm macro slices on the emptied cores while contenders still rotate
elsewhere, and wakeups and faults occasionally split one.  The
contract is the same observational equivalence as
:mod:`tests.test_coalescing`, held down here on contended scenarios:

* a panel over the nine machine configurations × both schedulers ×
  (clean | golden fault storm) on a runqueue-heavy scenario;
* hypothesis property tests: random wakeup times and random throttle
  storms landing inside rotations must leave byte-identical sliced
  state;
* the ``coalesce.macro_fallback`` regression counter stays zero on
  every standard configuration.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import System
from repro.faults import FaultSchedule
from repro.kernel import (
    AsymmetryAwareScheduler,
    Compute,
    SimThread,
    SymmetricScheduler,
)
from repro.kernel.instructions import Sleep
from repro.machine.topology import STANDARD_CONFIG_LABELS
from repro.sim import trace as _trace

from tests.harness import (
    assert_conservation,
    canonical_json,
    observed_surface,
)

SCHEDULERS = {
    "stock": SymmetricScheduler,
    "asym": AsymmetryAwareScheduler,
}


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


def _observed(config: str, scheduler_name: str, coalesce: bool,
              faults: bool) -> str:
    """Canonical JSON of everything a contended run exposes."""
    return observed_surface(config, SCHEDULERS[scheduler_name](), 17,
                            coalesce, faults, _contended_threads)


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("config", STANDARD_CONFIG_LABELS)
def test_contended_panel_byte_identity(config, scheduler_name):
    coalesced = _observed(config, scheduler_name, True, faults=False)
    sliced = _observed(config, scheduler_name, False, faults=False)
    assert coalesced == sliced


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("config", STANDARD_CONFIG_LABELS)
def test_contended_fault_storm_byte_identity(config, scheduler_name):
    coalesced = _observed(config, scheduler_name, True, faults=True)
    sliced = _observed(config, scheduler_name, False, faults=True)
    assert coalesced == sliced


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
