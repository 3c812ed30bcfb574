"""Durable per-request telemetry for the scenario service.

The server executes sweeps but — before this module — recorded
nothing durable about *how* each request was served.  A
:class:`RunLedger` closes that gap: the server appends exactly one
JSON line per request (JSONL), flushed as it is written, so a crash
loses at most the record being appended and an operator can replay
the service's life request by request.

The ledger is **outside the byte-identity surface**, like tracing:
records carry wall-clock queue-wait and execute latencies
(``time.monotonic`` deltas), which vary run to run, while the
simulation results the service returns do not.  Consumers that need
determinism (the perf report, CI gates) treat a ledger *file* as the
input — same file, same output.

Record schema (``format`` = :data:`LEDGER_FORMAT`; ``python
tools/check_schema.py LEDGER.jsonl`` validates a file against it)::

    every record:   format, index, request ("ping" | "stats" |
                    "shutdown" | "sweep" | "invalid"; ledgers
                    written by older servers also hold "subscribe"
                    and "run"), outcome ("ok" | "invalid" |
                    "overloaded" | "shutting_down" |
                    "worker_crashed" | "internal")
    scenario only:  workload, scheduler, fingerprint (digest over the
                    request's task fingerprints), tasks, cache_hits,
                    coalesced, fresh
    fresh batches:  queue_wait_seconds (admission -> batch-gate
                    acquisition), execute_seconds (pool wall time),
                    jobs (the pool's worker count)

:func:`summarize_ledger` folds a record list into the aggregate the
report's service section renders: request/outcome censuses, the
classification totals, and the queue-wait/execute latencies rebuilt
as :class:`~repro.histogram.LatencyHistogram` distributions.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Sequence

from repro.histogram import LatencyHistogram

#: Bump when the record schema changes; readers skip other formats.
LEDGER_FORMAT = 1

#: Every value ``outcome`` may take (mirrors the wire protocol's
#: error kinds, plus "ok").
OUTCOMES = ("ok", "invalid", "overloaded", "shutting_down",
            "worker_crashed", "internal")

#: Request kinds a record may carry ("invalid" marks a line that
#: failed protocol decoding before its type was known).  The server
#: no longer accepts "subscribe" or "run", but format-1 ledgers that
#: older servers wrote hold them, and a reopened ledger must still
#: validate.
REQUEST_KINDS = ("ping", "stats", "shutdown", "subscribe", "run",
                 "sweep", "invalid")

#: The per-request latency distributions the server aggregates and
#: :func:`summarize_ledger` rebuilds.
LATENCY_FIELDS = ("queue_wait_seconds", "execute_seconds")


def request_digest(fingerprints: Sequence[str]) -> str:
    """One stable digest for a whole request's task fingerprints."""
    joined = "\n".join(fingerprints).encode("utf-8")
    return hashlib.sha256(joined).hexdigest()[:32]


class RunLedger:
    """Append-only JSONL sink, one flushed line per service request.

    Reopening an existing file continues its ``index`` sequence, so a
    restarted server never writes an index the file already holds.  A
    last line without its newline is a record a crash tore mid-append;
    reopening cuts it off before counting.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.records_written = 0
        if os.path.exists(path):
            with open(path, "rb+") as handle:
                data = handle.read()
                if data and not data.endswith(b"\n"):
                    handle.truncate(data.rfind(b"\n") + 1)
            self.records_written = len(read_ledger(path))
        self._handle = open(path, "a", encoding="utf-8")

    def record(self, entry: Dict[str, Any]) -> None:
        """Append one record (``format``/``index`` stamped here)."""
        entry = dict(entry)
        entry["format"] = LEDGER_FORMAT
        entry["index"] = self.records_written
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def read_ledger(path: str) -> List[Dict[str, Any]]:
    """Parse a ledger file; unknown formats and blank lines skipped."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if (isinstance(record, dict)
                    and record.get("format") == LEDGER_FORMAT):
                records.append(record)
    return records


def summarize_ledger(
        records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate ledger records into the report's service section.

    Deterministic for a given record sequence: censuses are plain
    sorted dicts and the latency histograms are rebuilt by feeding
    each record's scalar sample through
    :meth:`LatencyHistogram.add`, so quantiles resolve to bucket
    bounds, not raw timings.
    """
    by_request: Dict[str, int] = {}
    by_outcome: Dict[str, int] = {}
    by_workload: Dict[str, int] = {}
    totals = {"tasks": 0, "cache_hits": 0, "coalesced": 0, "fresh": 0}
    latency = {name: LatencyHistogram() for name in LATENCY_FIELDS}
    for record in records:
        kind = str(record.get("request", "invalid"))
        by_request[kind] = by_request.get(kind, 0) + 1
        outcome = str(record.get("outcome", "ok"))
        by_outcome[outcome] = by_outcome.get(outcome, 0) + 1
        workload = record.get("workload")
        if workload is not None:
            by_workload[workload] = by_workload.get(workload, 0) + 1
        for name in totals:
            value = record.get(name)
            if isinstance(value, int) and not isinstance(value, bool):
                totals[name] += value
        for name in LATENCY_FIELDS:
            sample = record.get(name)
            if (isinstance(sample, (int, float))
                    and not isinstance(sample, bool) and sample >= 0):
                latency[name].add(float(sample))
    return {
        "records": len(records),
        "by_request": dict(sorted(by_request.items())),
        "by_outcome": dict(sorted(by_outcome.items())),
        "by_workload": dict(sorted(by_workload.items())),
        "tasks": totals["tasks"],
        "cache_hits": totals["cache_hits"],
        "coalesced": totals["coalesced"],
        "fresh": totals["fresh"],
        "latency": {
            name: {
                "count": histogram.count,
                "mean_seconds": histogram.mean,
                "p50_seconds": histogram.quantile(0.5),
                "p95_seconds": histogram.quantile(0.95),
                "p99_seconds": histogram.quantile(0.99),
                "histogram": histogram.as_dict(),
            }
            for name, histogram in latency.items()
        },
    }
