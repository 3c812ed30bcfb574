"""Tests for the service run ledger (repro.service.ledger).

The contracts under test:

* **exactly one** JSONL record per request the server dispatches —
  scenario runs, control requests and malformed lines alike;
* every record satisfies the schema census
  (``ledger_schema_errors`` in ``tools/check_schema.py``);
* scenario records classify the batch (tasks / cache hits /
  coalesced / fresh) consistently with the response, and carry
  queue-wait and execute latencies for fresh batches;
* error paths (invalid scenario, worker crash) are recorded with
  their outcome code instead of being dropped;
* the ``stats`` endpoint surfaces the ledger-derived latency
  histograms and the record count;
* :func:`summarize_ledger` aggregates a record list into the censuses
  and percentile tables the report's service section renders.
"""

import asyncio
import json
import sys
from pathlib import Path

import pytest

from repro.service.ledger import (
    LATENCY_FIELDS,
    LEDGER_FORMAT,
    OUTCOMES,
    REQUEST_KINDS,
    RunLedger,
    read_ledger,
    request_digest,
    summarize_ledger,
)
from repro.experiments.parallel import ProcessPoolBackend, WorkerCrashError
from repro.service.cache import ResultCache
from repro.workloads.base import RunResult

from tests.harness import GOLDEN_LEDGER_RECORDS
from tests.test_service_server import (
    RETIRED_REQUESTS,
    Connection,
    StubExecutor,
    _sweep_message,
    one_rpc,
    running_server,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import check_schema  # noqa: E402

ledger_schema_errors = check_schema.ledger_schema_errors


def _schema_clean(records):
    errors = []
    for index, record in enumerate(records):
        errors.extend(ledger_schema_errors(record, index))
    return errors


class TestServerLedger:
    def test_one_record_per_request(self, tmp_path):
        path = tmp_path / "ledger.jsonl"

        async def scenario():
            async with running_server(
                    executor=StubExecutor(),
                    ledger_path=str(path)) as server:
                async with Connection(server) as connection:
                    await connection.rpc({"type": "ping"})
                    await connection.rpc(_sweep_message())
                    await connection.rpc(b"{not json}\n")
                    await connection.rpc(_sweep_message(
                        workload="no-such-workload"))
                    return await connection.rpc({"type": "stats"})

        stats = asyncio.run(scenario())
        records = read_ledger(str(path))
        assert len(records) == 5
        assert _schema_clean(records) == []
        assert [r["request"] for r in records] == \
            ["ping", "sweep", "invalid", "sweep", "stats"]
        assert [r["outcome"] for r in records] == \
            ["ok", "ok", "invalid", "invalid", "ok"]
        assert [r["index"] for r in records] == list(range(5))
        assert stats["ledger"]["records"] == 5
        assert stats["ledger"]["path"] == str(path)

    def test_sweep_record_classifies_the_batch(self, tmp_path):
        path = tmp_path / "ledger.jsonl"

        async def scenario():
            async with running_server(
                    executor=StubExecutor(),
                    ledger_path=str(path)) as server:
                cold = await one_rpc(server, _sweep_message())
                warm = await one_rpc(server, _sweep_message())
                return cold, warm

        cold, warm = asyncio.run(scenario())
        first, second = read_ledger(str(path))
        assert first["workload"] == "tpch"
        assert first["scheduler"] == "stock"
        assert first["tasks"] == cold["tasks"] == 4
        assert first["fresh"] == cold["simulations_run"] == 4
        assert first["cache_hits"] == 0
        assert first["queue_wait_seconds"] >= 0
        assert first["execute_seconds"] >= 0
        # The stub executor has no worker count: no jobs field (a
        # real ProcessPoolBackend adds it).
        assert "jobs" not in first
        # No cache configured: the warm resubmission coalesces onto
        # nothing and simulates again -- but its record still agrees
        # with its response.
        assert second["fresh"] == warm["simulations_run"]
        assert second["fingerprint"] == first["fingerprint"]
        assert len(first["fingerprint"]) == 32

    def test_record_carries_the_pools_worker_count(self, tmp_path):
        class StubPool(ProcessPoolBackend):
            """A real pool's worker count; synthetic results, no
            workers."""

            def run_tasks(self, tasks):
                return StubExecutor().run_tasks(tasks)

        path = tmp_path / "ledger.jsonl"

        async def scenario():
            async with running_server(
                    executor=StubPool(jobs=3),
                    ledger_path=str(path)) as server:
                return await one_rpc(server, _sweep_message())

        assert asyncio.run(scenario())["simulations_run"] == 4
        (record,) = read_ledger(str(path))
        assert record["jobs"] == 3
        assert "shards" not in record

    def test_warm_hits_recorded_with_cache(self, tmp_path):
        path = tmp_path / "ledger.jsonl"

        async def scenario():
            async with running_server(
                    executor=StubExecutor(),
                    cache=ResultCache(str(tmp_path / "cache")),
                    ledger_path=str(path)) as server:
                await one_rpc(server, _sweep_message())
                return await one_rpc(server, _sweep_message())

        warm = asyncio.run(scenario())
        assert warm["cache_hits"] == 4
        records = read_ledger(str(path))
        assert records[1]["cache_hits"] == 4
        assert records[1]["fresh"] == 0
        # A fully cached batch never queued: no execute latency.
        assert "execute_seconds" not in records[1]

    def test_worker_crash_outcome_recorded(self, tmp_path):
        path = tmp_path / "ledger.jsonl"

        class CrashingExecutor:
            def run_tasks(self, tasks):
                raise WorkerCrashError("boom")

        async def scenario():
            async with running_server(
                    executor=CrashingExecutor(),
                    ledger_path=str(path)) as server:
                return await one_rpc(server, _sweep_message())

        response = asyncio.run(scenario())
        assert response["type"] == "error"
        assert response["error"] == "worker_crashed"
        (record,) = read_ledger(str(path))
        assert record["outcome"] == "worker_crashed"
        assert _schema_clean([record]) == []

    def test_stats_surfaces_latency_histograms(self, tmp_path):
        async def scenario():
            async with running_server(
                    executor=StubExecutor()) as server:
                await one_rpc(server, _sweep_message())
                return await one_rpc(server, {"type": "stats"})

        stats = asyncio.run(scenario())
        from repro.histogram import LatencyHistogram
        for name in ("queue_wait_seconds", "execute_seconds"):
            histogram = LatencyHistogram.from_dict(
                stats["latency"][name])
            assert histogram.count == 1
        # Histograms are maintained even with no ledger configured.
        assert stats["ledger"]["path"] is None

    def test_ledger_disabled_by_default(self, tmp_path):
        async def scenario():
            async with running_server(
                    executor=StubExecutor()) as server:
                await one_rpc(server, _sweep_message())
                return await one_rpc(server, {"type": "stats"})

        stats = asyncio.run(scenario())
        assert stats["ledger"]["records"] == 0
        assert list(tmp_path.iterdir()) == []


class TestLedgerFile:
    def test_records_are_jsonl_with_stamped_index(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(str(path))
        ledger.record({"request": "ping", "outcome": "ok"})
        ledger.record({"request": "stats", "outcome": "ok"})
        assert ledger.records_written == 2
        ledger.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for index, line in enumerate(lines):
            record = json.loads(line)
            assert record["format"] == LEDGER_FORMAT
            assert record["index"] == index

    def test_reopened_ledger_continues_the_index(self, tmp_path, capsys):
        """A server restarted on the same ``--ledger`` file appends
        after the records already there, never reusing an index."""
        path = tmp_path / "ledger.jsonl"
        for request in ("ping", "stats"):
            ledger = RunLedger(str(path))
            ledger.record({"request": request, "outcome": "ok"})
            ledger.close()
        records = read_ledger(str(path))
        assert [record["index"] for record in records] == [0, 1]
        assert [record["request"] for record in records] == \
            ["ping", "stats"]
        assert check_schema.check_file(str(path))
        assert "ledger, 2 records" in capsys.readouterr().out

    def test_reopening_cuts_a_record_torn_by_a_crash(self, tmp_path,
                                                     capsys):
        """A crash mid-append leaves an unterminated fragment; the
        reopened ledger drops it and continues the index."""
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(str(path))
        ledger.record({"request": "ping", "outcome": "ok"})
        ledger.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"format": 1, "index": 1, "requ')
        ledger = RunLedger(str(path))
        ledger.record({"request": "stats", "outcome": "ok"})
        ledger.close()
        records = read_ledger(str(path))
        assert [record["index"] for record in records] == [0, 1]
        assert check_schema.check_file(str(path))
        assert "ledger, 2 records" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", sorted(RETIRED_REQUESTS))
    def test_retired_request_kind_still_validates(self, tmp_path, kind):
        """A format-1 ledger from an older server holds ``run`` or
        ``subscribe`` records.  A server restarted on it appends after
        them, ledgers its refusal of that kind as ``invalid``, and the
        file stays schema clean."""
        path = tmp_path / "ledger.jsonl"
        legacy = {"request": kind, "outcome": "ok"}
        if kind == "run":
            legacy.update(workload="tpch", scheduler="stock",
                          fingerprint="00112233445566778899aabbccddeeff",
                          tasks=1, cache_hits=0, coalesced=0, fresh=1,
                          queue_wait_seconds=1e-05,
                          execute_seconds=0.01, jobs=1)
        ledger = RunLedger(str(path))
        ledger.record(legacy)
        ledger.close()

        async def scenario():
            async with running_server(
                    executor=StubExecutor(),
                    ledger_path=str(path)) as server:
                return await one_rpc(server, RETIRED_REQUESTS[kind])
        assert asyncio.run(scenario())["error"] == "invalid"
        records = read_ledger(str(path))
        assert [(r["index"], r["request"], r["outcome"])
                for r in records] == [(0, kind, "ok"),
                                      (1, "invalid", "invalid")]
        assert _schema_clean(records) == []
        assert summarize_ledger(records)["by_request"] == \
            {kind: 1, "invalid": 1}

    def test_a_terminated_malformed_line_still_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"format": 1, "index": 0, "requ\n',
                        encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            read_ledger(str(path))
        with pytest.raises(json.JSONDecodeError):
            RunLedger(str(path))
        assert path.read_text(encoding="utf-8") == \
            '{"format": 1, "index": 0, "requ\n'

    def test_read_ledger_skips_unknown_formats(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            json.dumps({"format": LEDGER_FORMAT, "index": 0,
                        "request": "ping", "outcome": "ok"}) + "\n"
            + "\n"
            + json.dumps({"format": 99, "request": "ping"}) + "\n",
            encoding="utf-8")
        records = read_ledger(str(path))
        assert len(records) == 1
        assert records[0]["request"] == "ping"

    def test_request_digest_is_stable_and_order_sensitive(self):
        a = request_digest(["k1", "k2"])
        assert a == request_digest(["k1", "k2"])
        assert a != request_digest(["k2", "k1"])
        assert len(a) == 32


class TestSchemaAndSummary:
    def test_golden_ledger_records_are_schema_clean(self):
        assert _schema_clean(GOLDEN_LEDGER_RECORDS) == []

    def test_schema_rejects_bad_records(self):
        assert ledger_schema_errors("not a dict")
        assert ledger_schema_errors({"format": LEDGER_FORMAT,
                                     "index": 0,
                                     "request": "teapot",
                                     "outcome": "ok"})
        assert ledger_schema_errors({"format": LEDGER_FORMAT,
                                     "index": 0,
                                     "request": "sweep",
                                     "outcome": "ok"})  # no task census
        assert ledger_schema_errors(
            {"format": LEDGER_FORMAT, "index": 0, "request": "sweep",
             "outcome": "ok", "tasks": 4, "cache_hits": 0,
             "coalesced": 0, "fresh": 4,
             "queue_wait_seconds": -1.0})  # negative latency

    def test_checker_reads_a_ledger_file(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(str(path))
        for record in GOLDEN_LEDGER_RECORDS:
            ledger.record({name: value for name, value in record.items()
                           if name not in ("format", "index")})
        ledger.close()
        assert check_schema.check_file(str(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"format": LEDGER_FORMAT, "index": 6,
                                     "request": "teapot",
                                     "outcome": "ok"}) + "\n")
        assert not check_schema.check_file(str(path))
        out = capsys.readouterr().out
        assert "ledger, 6 records" in out
        assert "record[6]: unknown request kind 'teapot'" in out

    def test_outcome_and_request_vocabularies(self):
        assert "ok" in OUTCOMES and "worker_crashed" in OUTCOMES
        assert "sweep" in REQUEST_KINDS and "invalid" in REQUEST_KINDS
        # The stdlib-only checker restates the vocabulary; it must
        # stay the package's, word for word.
        assert check_schema.LEDGER_FORMAT == LEDGER_FORMAT
        assert check_schema.OUTCOMES == OUTCOMES
        assert check_schema.REQUEST_KINDS == REQUEST_KINDS
        assert check_schema.LATENCY_FIELDS == LATENCY_FIELDS

    def test_summarize_ledger_censuses_and_latency(self):
        summary = summarize_ledger(GOLDEN_LEDGER_RECORDS)
        assert summary["records"] == len(GOLDEN_LEDGER_RECORDS)
        assert summary["by_request"]["sweep"] == 3
        assert summary["by_outcome"]["overloaded"] == 1
        assert summary["by_workload"]["specjbb"] == 3
        assert summary["tasks"] == 12
        assert summary["cache_hits"] == 6
        assert summary["fresh"] == 6
        queue = summary["latency"]["queue_wait_seconds"]
        assert queue["count"] == 2
        assert queue["mean_seconds"] > 0
        assert queue["p50_seconds"] <= queue["p95_seconds"] \
            <= queue["p99_seconds"]

    def test_summarize_empty_ledger(self):
        summary = summarize_ledger([])
        assert summary["records"] == 0
        assert summary["latency"]["execute_seconds"]["count"] == 0


class TestIdentitySurfaceUnchanged:
    def test_ledger_does_not_change_results(self, tmp_path):
        """Same scenario with and without a ledger: byte-identical
        result payloads (the ledger sits outside the identity
        surface, like tracing)."""

        async def run_one(**kwargs):
            async with running_server(executor=StubExecutor(),
                                      **kwargs) as server:
                return await one_rpc(server, _sweep_message())

        bare = asyncio.run(run_one())
        ledgered = asyncio.run(run_one(
            ledger_path=str(tmp_path / "ledger.jsonl")))
        assert json.dumps(bare["results"], sort_keys=True) == \
            json.dumps(ledgered["results"], sort_keys=True)


def test_run_result_import_is_real():
    # Guards the StubExecutor contract this module leans on.
    assert RunResult(workload="w", config="4f-0s", seed=1,
                     metrics={}).seed == 1
