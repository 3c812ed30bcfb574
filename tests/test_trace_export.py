"""Chrome trace-event export: structure, determinism, CLI wiring."""

import json

import pytest

from repro.experiments.parallel import (
    ProcessPoolBackend,
    RunTask,
    SerialBackend,
    make_backend,
    task_fingerprint,
)
from repro.sim import trace as _trace
from repro.sim import trace_export
from repro.sim.trace_export import TraceData
from repro.workloads.base import RunOptions, Workload
from repro.workloads.specjbb import SpecJBB

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import check_schema  # noqa: E402
import trace_diff  # noqa: E402

from tests.harness import (  # noqa: E402
    TRACED,
    WORKLOAD_TABLE,
    WORKLOAD_TABLE_CONFIG,
)


def _workload():
    return SpecJBB(warehouses=2, measurement_seconds=0.2,
                   warmup_seconds=0.05)


def _traced_run():
    return _workload().run_once("2f-2s/8", seed=3, options=TRACED)


def _tasks(seeds=(1, 2), options=TRACED):
    workload = _workload()
    return [RunTask(workload, "2f-2s/8", seed, options=options)
            for seed in seeds]


class TestTraceData:
    def test_attached_only_when_tracing_enabled(self):
        result = _traced_run()
        assert result.trace is not None
        assert result.trace.spans, "traced run captured no spans"
        assert len(result.trace.core_labels) == 4
        assert result.trace.core_labels[0] == "cpu0 (fast)"
        assert result.trace.core_labels[3] == "cpu3 (slow)"

    def test_not_attached_by_default(self):
        assert _workload().run_once("2f-2s/8", seed=3).trace is None

    def test_dict_round_trip(self):
        data = _traced_run().trace
        back = TraceData.from_dict(data.as_dict())
        assert back.core_labels == data.core_labels
        assert back.spans == data.spans
        assert back.records == data.records


@pytest.mark.parametrize("name", sorted(WORKLOAD_TABLE))
def test_every_workload_attaches_its_timeline(name):
    """``Workload.run_once`` attaches the timeline of a traced run,
    whichever workload it runs, and only of a traced one."""
    make = WORKLOAD_TABLE[name]
    assert make().run_once(WORKLOAD_TABLE_CONFIG, seed=1).trace is None
    result = make().run_once(WORKLOAD_TABLE_CONFIG, seed=1,
                             options=TRACED)
    assert result.trace is not None
    assert any(span.category == "exec" for span in result.trace.spans)
    assert trace_export.chrome_trace([result])["traceEvents"]


def _concrete_workload_classes(cls=Workload):
    for sub in cls.__subclasses__():
        if (sub.__module__.startswith("repro.")
                and not sub.__name__.startswith("_")):
            yield sub
        yield from _concrete_workload_classes(sub)


def test_workload_table_names_every_workload():
    """A new workload class joins ``WORKLOAD_TABLE``, so the per-run
    contracts above (and the fault-schedule one in ``test_faults``)
    cover it too."""
    tabled = {type(make()) for make in WORKLOAD_TABLE.values()}
    assert set(_concrete_workload_classes()) == tabled
    assert sorted(WORKLOAD_TABLE) == sorted(cls.__name__
                                           for cls in tabled)


class TestChromeTrace:
    def test_schema_valid_and_tracks_named(self):
        result = _traced_run()
        trace = trace_export.chrome_trace([result])
        errors, census = check_schema.check_trace(trace)
        assert errors == []
        assert census["X"] > 0 and census["M"] > 0
        names = [event["args"]["name"]
                 for event in trace["traceEvents"]
                 if event["ph"] == "M"
                 and event["name"] == "thread_name"]
        assert "cpu0 (fast)" in names
        process_names = [event["args"]["name"]
                         for event in trace["traceEvents"]
                         if event["ph"] == "M"
                         and event["name"] == "process_name"]
        assert process_names == ["SPECjbb 2f-2s/8 seed=3"]

    def test_migrations_become_flow_events(self):
        result = _traced_run()
        trace = trace_export.chrome_trace([result])
        starts = [e for e in trace["traceEvents"] if e["ph"] == "s"]
        ends = [e for e in trace["traceEvents"] if e["ph"] == "f"]
        migrations = result.run_metrics.migrations
        assert len(starts) == len(ends) == migrations

    def test_histograms_embedded_for_trace_diff(self):
        result = _traced_run()
        trace = trace_export.chrome_trace([result])
        runs = trace["otherData"]["runs"]
        assert len(runs) == 1
        assert "sched_latency_seconds" in runs[0]["histograms"]

    def test_untraced_results_are_skipped(self):
        result = _workload().run_once("2f-2s/8", seed=3)
        trace = trace_export.chrome_trace([result])
        assert trace["traceEvents"] == []
        assert trace["otherData"]["runs"] == []


class TestDeterminism:
    def test_serial_and_pool_export_byte_identical(self):
        serial = SerialBackend().execute(_tasks())
        pooled = ProcessPoolBackend(jobs=2).execute(_tasks())
        text_serial = trace_export.trace_to_json(
            trace_export.chrome_trace(serial))
        text_pooled = trace_export.trace_to_json(
            trace_export.chrome_trace(pooled))
        assert text_serial == text_pooled

    def test_fingerprint_distinguishes_traced_runs(self):
        untraced = task_fingerprint(_tasks(options=RunOptions())[0])
        traced = task_fingerprint(
            _tasks(options=RunOptions(trace=frozenset({"exec"})))[0])
        assert traced != untraced


class TestTraceDiff:
    def _export(self, tmp_path, name, trace):
        path = tmp_path / name
        path.write_text(trace_export.trace_to_json(trace) + "\n",
                        encoding="utf-8")
        return str(path)

    def test_identical_traces_exit_zero(self, tmp_path, capsys):
        result = _traced_run()
        trace = trace_export.chrome_trace([result])
        a = self._export(tmp_path, "a.json", trace)
        b = self._export(tmp_path, "b.json", trace)
        assert trace_diff.main([a, b]) == 0
        assert "1 of 1 matched runs identical" in capsys.readouterr().out

    def test_histogram_only_divergence_exits_nonzero(
            self, tmp_path, capsys):
        """Identical event streams must not mask a histogram drift."""
        result = _traced_run()
        trace = trace_export.chrome_trace([result])
        a = self._export(tmp_path, "a.json", trace)
        drifted = json.loads(trace_export.trace_to_json(trace))
        histograms = drifted["otherData"]["runs"][0]["histograms"]
        shifted = histograms["sched_latency_seconds"]
        shifted["zeros"] = shifted.get("zeros", 0) + 1
        b = self._export(tmp_path, "b.json", drifted)
        assert trace_diff.main([a, b]) == 1
        out = capsys.readouterr().out
        assert "event streams identical but histograms differ" in out
        assert "sched_latency_seconds" in out


class TestTraceSink:
    def test_backends_feed_their_result_list(self):
        for jobs in (0, 2):
            sink = []
            results = make_backend(jobs, sink=sink).execute(_tasks())
            assert sink == results
            assert len(sink) == 2
            assert all(result.trace is not None for result in sink)
            # The list belongs to that backend; another leaves it be.
            SerialBackend().execute(_tasks())
            assert len(sink) == 2

    def test_sink_drops_untraced_results(self, tmp_path):
        sink = []
        SerialBackend(sink=sink).execute(_tasks(options=RunOptions()))
        path = tmp_path / "untraced.json"
        assert trace_export.write_chrome_trace(str(path), sink) == 0
        assert json.loads(path.read_text(encoding="utf-8"))[
            "otherData"]["runs"] == []


class TestWriteTrace:
    def test_written_file_is_valid_and_loadable(self, tmp_path):
        result = _traced_run()
        path = tmp_path / "run.trace.json"
        count = trace_export.write_chrome_trace(str(path), [result])
        assert count > 0
        assert check_schema.check_file(str(path))
        trace = json.loads(path.read_text(encoding="utf-8"))
        assert len(trace["traceEvents"]) == count


class TestCLI:
    def test_trace_flag_requires_trace_out(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig01", "--trace", "exec"])

    def test_parse_categories(self):
        assert _trace.parse_categories("exec, sched") == \
            frozenset({"exec", "sched"})
        with pytest.raises(ValueError):
            _trace.parse_categories(" , ")
