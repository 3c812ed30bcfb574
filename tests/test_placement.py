"""One-pass placement agrees with each policy's rule written out.

The schedulers place a ready thread with a single scan of the machine
(:meth:`Scheduler._loads`).  This suite restates every policy's
placement rule pass by pass — allowed cores, their loads, the least
loaded, the fastest of those — and checks on random machine states
(queues, running threads, offline cores, affinities, reprogrammed
duty cycles) that both pick the same core and consume the same
tie-break randomness.  The symmetric policy answers a waking thread
whose last core is loaded below ``rebalance_threshold`` without the
scan; explicit examples pin that shortcut at and around its edges.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro import System
from repro.errors import SchedulingError
from repro.kernel import (
    AsymmetryAwareScheduler,
    SimThread,
    SymmetricScheduler,
)
from repro.kernel.asym_scheduler import RankOnlyAsymmetryScheduler
from repro.machine import SUPPORTED_DUTY_CYCLES

CONFIGS = ("4f-0s", "3f-1s/4", "2f-2s/8", "1f-3s/8", "0f-4s/4")
POLICIES = (SymmetricScheduler, AsymmetryAwareScheduler,
            RankOnlyAsymmetryScheduler)
CORES = 4


def _body():
    yield from ()


def reference_place(scheduler, thread):
    """The placement rule of ``scheduler``'s policy, pass by pass."""
    kernel = scheduler.kernel

    def load(core):
        return (len(kernel.runqueues[core.index])
                + (core.current_thread is not None))

    allowed = [core for core in kernel.machine.cores
               if core.online and thread.allowed_on(core.index)]
    if not allowed:
        raise SchedulingError("no online allowed core")
    by_index = {core.index: core for core in allowed}
    min_load = min(load(core) for core in allowed)
    least = [core for core in allowed if load(core) == min_load]
    if isinstance(scheduler, RankOnlyAsymmetryScheduler):
        rank = scheduler._rank_of
        best = min(rank[core.index] for core in least)
        fastest = [core for core in least if rank[core.index] == best]
    elif isinstance(scheduler, AsymmetryAwareScheduler):
        top = max(core.rate for core in least)
        fastest = [core for core in least if core.rate == top]
    else:
        if thread.last_core is None:
            idle = [core for core in allowed if load(core) == 0]
            if idle:
                return kernel.rng.choice_tiebreak(idle)
            if thread.spawn_core_hint in by_index:
                return by_index[thread.spawn_core_hint]
            return kernel.rng.choice_tiebreak(least)
        last = by_index.get(thread.last_core)
        if last is not None \
                and load(last) - min_load < scheduler.rebalance_threshold:
            return last
        return kernel.rng.choice_tiebreak(least)
    for core in fastest:
        if core.index == thread.last_core:
            return core
    return kernel.rng.choice_tiebreak(fastest)


core_flags = st.lists(st.booleans(), min_size=CORES, max_size=CORES)
core_indices = st.none() | st.integers(0, CORES - 1)


def machine_state(config, seed, policy, online, running, queued, duties,
                  affinity, last_core, spawn_core_hint):
    """A system in the given mid-run state plus a thread to place."""
    system = System.build(config, seed=seed, scheduler=policy())
    for core in system.machine.cores:
        index = core.index
        core.online = online[index]
        if running[index]:
            core.current_thread = SimThread(f"run{index}", _body())
        for slot in range(queued[index]):
            system.kernel.runqueues[index].append(
                SimThread(f"q{index}.{slot}", _body()))
        if duties[index] is not None:
            core.set_duty_cycle(duties[index])
    thread = SimThread("placed", _body(), affinity=affinity)
    thread.last_core = last_core
    thread.spawn_core_hint = spawn_core_hint
    return system, thread


@st.composite
def placements(draw):
    """A system in a random mid-run state plus a thread to place."""
    return machine_state(
        draw(st.sampled_from(CONFIGS)), draw(st.integers(0, 10_000)),
        draw(st.sampled_from(POLICIES)), draw(core_flags),
        draw(core_flags),
        draw(st.lists(st.integers(0, 4), min_size=CORES, max_size=CORES)),
        draw(st.lists(st.none() | st.sampled_from(SUPPORTED_DUTY_CYCLES),
                      min_size=CORES, max_size=CORES)),
        draw(st.none() | st.sets(st.integers(0, CORES - 1), min_size=1)),
        draw(core_indices), draw(core_indices))


def waking_on_core1(load, online=True, affinity=None):
    """A thread that last ran on core 1 of a stock-scheduled machine,
    core 1 at ``load`` (one running, the rest queued), cores 0, 2 and
    3 idle."""
    queued = [0, max(load - 1, 0), 0, 0]
    return machine_state("2f-2s/8", 7, SymmetricScheduler,
                         [True, online, True, True],
                         [False, load > 0, False, False], queued,
                         [None] * CORES, affinity, 1, None)


THRESHOLD = SymmetricScheduler.rebalance_threshold


@settings(max_examples=300, deadline=None)
@given(placements())
@example(waking_on_core1(THRESHOLD - 1))  # stays, no scan
@example(waking_on_core1(THRESHOLD))  # leaves, random idle core
@example(waking_on_core1(0, online=False))  # offline last core
@example(waking_on_core1(0, affinity={0, 2, 3}))  # last core excluded
def test_one_pass_placement_matches_the_rule(case):
    system, thread = case
    assume(any(core.online and thread.allowed_on(core.index)
               for core in system.machine.cores))
    scheduler = system.kernel.scheduler
    rng = system.kernel.rng
    before = rng.getstate()
    expected = reference_place(scheduler, thread)
    after = rng.getstate()
    rng.setstate(before)
    assert scheduler.place(thread) is expected
    assert rng.getstate() == after


@pytest.mark.parametrize("policy", POLICIES)
def test_no_online_allowed_core_is_an_error(policy):
    system = System.build("2f-2s/8", seed=1, scheduler=policy())
    system.machine.cores[1].online = False
    thread = SimThread("pinned", _body(), affinity={1})
    with pytest.raises(SchedulingError, match="no online allowed core"):
        system.kernel.scheduler.place(thread)
