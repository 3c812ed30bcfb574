"""Chrome trace-event / Perfetto export of simulation timelines.

The tracer (:mod:`repro.sim.trace`) retains spans and point records;
this module turns them into the JSON object format of the Chrome
trace-event specification, which ``chrome://tracing`` and Perfetto's
https://ui.perfetto.dev load directly:

* each **run** becomes one trace *process* (``pid`` = the run's
  position in deterministic task order, ``process_name`` =
  ``"workload config seed=N"``);
* each **core** becomes a thread track on that process (``tid`` = core
  index, named ``"cpu0 (fast)"`` / ``"cpu2 (slow)"``) carrying the
  ``"exec"`` compute slices and the shaded ``"faults"`` windows;
* each **simulated thread** gets its own track below the cores for its
  ``"block"`` intervals (lock waits, sleeps, fault stalls);
* thread **migrations** are drawn as flow arrows (``ph: s``/``f``)
  connecting a thread's consecutive compute slices on different cores;
* point records become instant events (``ph: i``).

Timestamps are simulated seconds scaled to trace microseconds.  All
ordering follows the tracer's deterministic retention order and the
backends' deterministic task order, so serial and process-pool sweeps
of the same seeds export byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.trace import SpanRecord, TraceRecord

#: Trace timestamps are microseconds; the simulation clock is seconds.
_US = 1e6


def _span_sort_key(span: SpanRecord):
    """Canonical, mode-independent ordering for exported spans.

    Pure content — no retention-order input — so two runs retaining
    the same span *multiset* (e.g. coalesced vs per-quantum execution)
    export identical lists.  Leading with ``end`` keeps the order
    close to the tracer's natural completion order.
    """
    return (span.end, span.start, span.category, span.name,
            span.core if span.core is not None else -1,
            span.thread or "", repr(span.details))


@dataclass
class TraceData:
    """The exportable timeline of one run: spans + records + topology.

    Captured from a live system by :meth:`from_system` right after the
    run, pickled inside :class:`~repro.workloads.base.RunResult` across
    process-pool workers, and serializable to plain JSON.
    """

    #: Track labels per core index, e.g. ``["cpu0 (fast)", ...]``.
    core_labels: List[str] = field(default_factory=list)
    records: List[TraceRecord] = field(default_factory=list)
    spans: List[SpanRecord] = field(default_factory=list)

    @classmethod
    def from_system(cls, system) -> "TraceData":
        """Capture the tracer's retained timeline from a run system.

        Any live coalesced macro slices are materialized first so the
        export carries exactly the spans a sliced run retains, and the
        span list is put into a canonical content order: the kernel's
        macro-slice catch-up retains a core's skipped exec spans in a
        burst, so the tracer's raw retention order is the one
        observable (and meaningless) difference between the coalesced
        and sliced executions.  Sorting by content in *both* modes
        keeps exports byte-identical.
        """
        machine = system.machine
        labels = [
            f"cpu{core.index} "
            f"({'fast' if machine.is_fast(core) else 'slow'})"
            for core in machine.cores]
        kernel = getattr(system, "kernel", None)
        if kernel is not None:
            kernel._macro_catchup_all()
        tracer = system.sim.tracer
        return cls(core_labels=labels, records=tracer.records(),
                   spans=sorted(tracer.spans(), key=_span_sort_key))

    @property
    def n_cores(self) -> int:
        return len(self.core_labels)

    def thread_names(self) -> List[str]:
        """Simulated threads with their own track, in sorted order."""
        names = {span.thread for span in self.spans
                 if span.thread is not None and span.core is None}
        names.update(record.get("thread") for record in self.records
                     if record.get("core") is None
                     and record.get("thread") is not None)
        return sorted(names)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "core_labels": list(self.core_labels),
            "records": [record.as_dict() for record in self.records],
            "spans": [span.as_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceData":
        def record_from(entry: Dict[str, Any]) -> TraceRecord:
            entry = dict(entry)
            time = entry.pop("time")
            category = entry.pop("category")
            return TraceRecord(time, category,
                               tuple(sorted(entry.items())))

        return cls(
            core_labels=list(data.get("core_labels", [])),
            records=[record_from(entry)
                     for entry in data.get("records", [])],
            spans=[SpanRecord.from_dict(entry)
                   for entry in data.get("spans", [])],
        )


# ----------------------------------------------------------------------
# Chrome trace-event assembly
# ----------------------------------------------------------------------
def _metadata(pid: int, tid: Optional[int], name: str,
              what: str) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "ph": "M", "pid": pid, "name": what, "args": {"name": name}}
    if tid is not None:
        event["tid"] = tid
    return event


def _span_args(span: SpanRecord) -> Dict[str, Any]:
    args = dict(span.details)
    if span.thread is not None:
        args["thread"] = span.thread
    return args


def run_trace_events(result, pid: int) -> List[Dict[str, Any]]:
    """Trace events of one run, as one ``pid`` process group.

    ``result`` is a :class:`~repro.workloads.base.RunResult` whose
    ``trace`` is a :class:`TraceData`.
    """
    data: TraceData = result.trace
    if data is None:
        raise ValueError(
            f"run {result.workload}/{result.config}/seed={result.seed} "
            "carries no trace (was tracing enabled?)")
    events: List[Dict[str, Any]] = [_metadata(
        pid, None,
        f"{result.workload} {result.config} seed={result.seed}",
        "process_name")]
    for index, label in enumerate(data.core_labels):
        events.append(_metadata(pid, index, label, "thread_name"))
    thread_tids = {name: data.n_cores + ordinal
                   for ordinal, name in enumerate(data.thread_names())}
    for name, tid in thread_tids.items():
        events.append(_metadata(pid, tid, name, "thread_name"))

    # Interval events, in the tracer's deterministic retention order.
    # Per-thread exec history doubles as the migration flow source.
    exec_history: Dict[str, List[SpanRecord]] = {}
    for span in data.spans:
        if span.core is not None:
            tid = span.core
        elif span.thread in thread_tids:
            tid = thread_tids[span.thread]
        else:
            tid = 0
        events.append({
            "ph": "X", "pid": pid, "tid": tid,
            "ts": span.start * _US, "dur": span.duration * _US,
            "cat": span.category, "name": span.name,
            "args": _span_args(span),
        })
        if span.category == "exec" and span.thread is not None:
            exec_history.setdefault(span.thread, []).append(span)

    # Migration flow arrows: consecutive exec slices of one thread on
    # different cores.  Flow ids only need to be unique per pid.
    flow_id = 0
    for name in sorted(exec_history):
        history = exec_history[name]
        history.sort(key=lambda span: span.start)
        for previous, current in zip(history, history[1:]):
            if previous.core == current.core:
                continue
            flow_id += 1
            common = {"pid": pid, "cat": "sched",
                      "name": f"migrate {name}", "id": flow_id}
            events.append(dict(common, ph="s", tid=previous.core,
                               ts=previous.end * _US))
            events.append(dict(common, ph="f", bp="e", tid=current.core,
                               ts=current.start * _US))

    # Point records as instant events.
    for record in data.records:
        core = record.get("core")
        if core is not None:
            tid = core
        else:
            tid = thread_tids.get(record.get("thread"), 0)
        name = record.get("event") or record.category
        events.append({
            "ph": "i", "pid": pid, "tid": tid, "s": "t",
            "ts": record.time * _US, "cat": record.category,
            "name": name,
            "args": {key: value for key, value in record.details
                     if key != "event"},
        })
    return events


def chrome_trace(results: Sequence[Any]) -> Dict[str, Any]:
    """The full Chrome trace-event JSON object for a list of runs.

    ``results`` must be in deterministic task order (the order the
    backends return); each run becomes one ``pid``.  Runs without a
    trace are skipped (e.g. cache hits from an untraced sweep never
    reach here — the fingerprint keys on the trace categories).
    """
    events: List[Dict[str, Any]] = []
    summaries: List[Dict[str, Any]] = []
    pid = 0
    for result in results:
        if getattr(result, "trace", None) is None:
            continue
        events.extend(run_trace_events(result, pid))
        summary: Dict[str, Any] = {
            "pid": pid,
            "workload": result.workload,
            "config": result.config,
            "seed": result.seed,
        }
        if result.run_metrics is not None:
            summary["histograms"] = {
                name: histogram.as_dict()
                for name, histogram
                in sorted(result.run_metrics.histograms.items())}
        summaries.append(summary)
        pid += 1
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        # Non-standard but spec-sanctioned extra payload: per-run
        # latency histograms, consumed by tools/trace_diff.py.
        "otherData": {"runs": summaries},
    }


def trace_to_json(trace: Dict[str, Any]) -> str:
    """Deterministic JSON rendering of a trace object."""
    return json.dumps(trace, indent=1, sort_keys=True)


def write_chrome_trace(path: str, results: Sequence[Any]) -> int:
    """Export ``results`` to ``path``; returns the event count."""
    trace = chrome_trace(results)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_to_json(trace))
        handle.write("\n")
    return len(trace["traceEvents"])
