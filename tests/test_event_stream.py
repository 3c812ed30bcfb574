"""Event-stream identity: the kernel fires the same events in order.

The golden fixtures pin what a run *ends with* (books, traces); this
suite pins how it got there.  ``tests/golden/event_streams.json`` holds,
for every scenario in :data:`tests.harness.EVENT_STREAM_SCENARIOS` and
both execution modes, the number of events fired and a digest of each
event's time, callback and arguments in firing order.  A hot-path
refactor that keeps the digests keeps the simulation itself, event for
event (regenerate with ``python tests/golden/regenerate.py`` only when
a change is meant to alter behaviour).
"""

import pytest

from repro.workloads.lockstress import LockStress
from tests import harness

MODES = {"coalesced": True, "sliced": False}


@pytest.fixture(scope="module")
def golden():
    return harness.load_golden("event_streams")["scenarios"]


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(harness.EVENT_STREAM_SCENARIOS))
def test_event_stream_matches_golden(golden, name, mode):
    assert harness.event_stream(name, MODES[mode]) == golden[name][mode]


@pytest.mark.parametrize("name", sorted(harness.EVENT_STREAM_SCENARIOS))
def test_macro_cores_keep_empty_runqueues(name):
    """No coalesced core ever holds a queued thread, so schedulers may
    steal from and pull against ``Kernel.runqueues`` directly."""
    with harness.pinned_coalescing(True):
        violations = harness.macro_queue_violations(
            harness.EVENT_STREAM_SCENARIOS[name])
    assert not violations, violations[:5]


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(harness.EVENT_STREAM_SCENARIOS)
    for name, modes in golden.items():
        assert sorted(modes) == sorted(MODES), name
        # Coalescing exists to fire fewer events, never more.
        assert modes["coalesced"]["events"] <= modes["sliced"]["events"]


def _lock_run(seed):
    return LockStress(n_threads=4, lock_kind="spin",
                      duration=0.02).run_once("2f-2s/8", seed=seed)


def test_recording_is_passive():
    plain = _lock_run(1).run_metrics.to_json()
    results = []
    harness.record_event_stream(lambda: results.append(_lock_run(1)))
    assert results[0].run_metrics.to_json() == plain


def test_digest_tells_runs_apart():
    first = harness.record_event_stream(lambda: _lock_run(1))
    again = harness.record_event_stream(lambda: _lock_run(1))
    other = harness.record_event_stream(lambda: _lock_run(2))
    assert first == again
    assert first["events"] > 0
    assert other["sha256"] != first["sha256"]
