"""Golden-trace regression tests.

Each fixture in ``tests/golden/`` is the canonical JSON of a small
fixed-seed simulation (run metrics, and for the kernel case the full
scheduler decision trace).  The simulator is deterministic, so any
diff against these files is a behaviour change: either a regression,
or an intentional change that must ship with regenerated fixtures
(``python tests/golden/regenerate.py``) and an explanation.
"""

import json

import pytest

from tests import harness
from tests.golden import regenerate


@pytest.mark.parametrize("name", sorted(harness.GOLDEN_RUNS))
def test_golden_fixture_matches(name):
    expected = harness.load_golden(name)
    actual = harness.GOLDEN_RUNS[name]()
    # Compare canonical renderings: byte-identical files are the
    # contract (the CI diff of a golden file is the review artifact).
    actual_text = harness.canonical_json(actual)
    expected_text = harness.canonical_json(expected)
    if actual_text != expected_text:
        # Ship the forensics with the failure: the rebuild ran with
        # tracing on, so its flight-recorder ring shows the last
        # moments of the diverging simulation.
        entries = harness.GOLDEN_FLIGHT.get(name, [])
        path = harness.write_flight_dump(name, entries)
        assert actual_text == expected_text, (
            f"golden fixture {name!r} drifted; flight recorder "
            f"({len(entries)} entries) dumped to {path}")


@pytest.mark.parametrize("name", sorted(harness.GOLDEN_RUNS))
def test_golden_fixture_is_canonical_on_disk(name):
    """Files must be exactly what regenerate.py would write."""
    text = harness.golden_path(name).read_text(encoding="utf-8")
    assert text == harness.canonical_json(json.loads(text))


@pytest.mark.parametrize("name", sorted(harness.GOLDEN_RUNS))
def test_golden_metrics_conserve_cycles(name):
    """The stored fixtures themselves satisfy the conservation laws."""
    payload = harness.load_golden(name)
    metrics = harness.RunMetrics.from_dict(payload["run_metrics"])
    harness.assert_conservation(metrics)


def test_golden_sched_trace_consistent_with_counters():
    """Replaying the traced run, the sched trace agrees with the
    always-on counters (which are maintained independently)."""
    payload = harness.load_golden("sched_trace_1f-3s_asym_seed11")
    from repro import System
    from repro.kernel import AsymmetryAwareScheduler, Compute, SimThread

    system = System.build(payload["config"], seed=payload["seed"],
                          scheduler=AsymmetryAwareScheduler())
    system.sim.tracer.enable("sched")
    watcher = harness.FastCoreIdleWatcher(system.machine)
    system.sim.tracer.add_sink(watcher)

    def body(cycles):
        yield Compute(cycles)

    for index, cycles in enumerate([4e8, 2.5e8, 1.5e8, 0.8e8]):
        system.kernel.spawn(SimThread(f"t{index}", body(cycles)))
    system.run()
    metrics = system.run_metrics()
    records = system.sim.tracer.records("sched")
    errors = harness.trace_consistency_errors(metrics, records)
    assert errors == []
    watcher.assert_clean()


def test_drift_check_writes_the_flight_dump(tmp_path, monkeypatch,
                                            capsys):
    """``regenerate.py --check`` (CI's drift step) ships a drifted run
    fixture's flight-recorder ring itself."""
    name = "sched_trace_1f-3s_asym_seed11"
    text = harness.golden_path(name).read_text(encoding="utf-8")
    edited = text.replace('"seed": 11', '"seed": 12', 1)
    assert edited != text
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / f"{name}.json").write_text(edited, encoding="utf-8")
    monkeypatch.setattr(harness, "GOLDEN_DIR", golden)
    monkeypatch.setattr(harness, "GOLDEN_RUNS",
                        {name: harness.GOLDEN_RUNS[name]})
    monkeypatch.setattr(harness, "GOLDEN_FILES", {})
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "dumps"))
    assert regenerate.check() == 1
    dump = tmp_path / "dumps" / f"{name}.flight.json"
    payload = json.loads(dump.read_text(encoding="utf-8"))
    assert payload["label"] == name
    assert len(payload["entries"]) == 98
    assert f"(98 entries) dumped to {dump}" in capsys.readouterr().out
