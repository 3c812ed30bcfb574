#!/usr/bin/env python
"""Validate the files the program writes, with only the stdlib.

CI runs this over the timelines, performance reports and run ledgers
it generates, so a malformed file (an event Perfetto would refuse or
silently drop, a report section a reader would find empty or
non-finite, a ledger record outside its schema) fails the build
instead of shipping as an artifact::

    python tools/check_schema.py FILE [FILE ...]

The rules follow the file:

* ``*.md``: a rendered performance report must carry the
  reader-facing section headings;
* ``*.jsonl``: a run ledger (DESIGN.md §13), one record per line, each
  with the known format, request kind and outcome, a task census on
  scenario records and non-negative latencies;
* JSON with ``traceEvents``: a Chrome trace-event timeline, checked
  for the subset of the format the exporter emits: a known phase, an
  integer ``pid`` and the fields that phase requires, finite
  non-negative times, and a flow start for every flow finish;
* any other JSON: a performance report payload, with every section,
  finite statistics, USL rows whose residuals add up and cover every
  config of the sweep, and a well-formed service section if present.

Exit status: 0 when every file passes, 1 otherwise, 2 without files.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Dict, List, Tuple

#: Trace phases the exporter emits (a deliberate subset of the spec).
KNOWN_PHASES = ("M", "X", "i", "s", "f")
#: Metadata record names Perfetto interprets.
KNOWN_METADATA = ("process_name", "process_labels", "process_sort_index",
                  "thread_name", "thread_sort_index")
#: Instant-event scopes from the spec.
KNOWN_SCOPES = ("t", "p", "g")

REPORT_FORMAT = 1
REQUIRED_SECTIONS = ("format", "workload", "primary_metric",
                     "higher_is_better", "configs", "seed_panel",
                     "throughput", "deltas", "usl", "variability")
SUMMARY_FIELDS = ("mean", "std", "min", "max", "cov", "spread")
USL_ROW_FIELDS = ("measured", "predicted", "residual",
                  "relative_residual")
MARKDOWN_HEADINGS = ("# Performance report — ",
                     "## Throughput",
                     "## Asymmetric vs. stock scheduler",
                     "## Theoretical vs. measured scaling (USL)",
                     "## Run-to-run variability")

# The ledger vocabulary, restated from repro.service.ledger so this
# tool needs no import of the package; a tier-1 test keeps them equal.
# REQUEST_KINDS keeps "subscribe" and "run", which the server no longer
# accepts: format-1 ledgers written by older servers hold them.
LEDGER_FORMAT = 1
OUTCOMES = ("ok", "invalid", "overloaded", "shutting_down",
            "worker_crashed", "internal")
REQUEST_KINDS = ("ping", "stats", "shutdown", "subscribe", "run",
                 "sweep", "invalid")
LATENCY_FIELDS = ("queue_wait_seconds", "execute_seconds")
TASK_CENSUS = ("tasks", "cache_hits", "coalesced", "fresh")

Errors = List[str]


def _is_number(value: Any, minimum: float = -math.inf) -> bool:
    """A finite int or float (never a bool) of at least ``minimum``."""
    return (isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value) and value >= minimum)


def _is_count(value: Any) -> bool:
    """A non-negative int (never a bool)."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


# ----------------------------------------------------------------------
# Trace-event timelines
# ----------------------------------------------------------------------
def check_event(event: Any, where: str, errors: Errors) -> None:
    """Append the schema violations of one trace event to ``errors``."""
    if not isinstance(event, dict):
        errors.append(f"{where}: not an object")
        return
    phase = event.get("ph")
    if phase not in KNOWN_PHASES:
        errors.append(f"{where}: unknown phase {phase!r}")
        return
    if not isinstance(event.get("pid"), int):
        errors.append(f"{where}: pid must be an integer")
    if phase == "M":
        if event.get("name") not in KNOWN_METADATA:
            errors.append(f"{where}: unknown metadata record "
                          f"{event.get('name')!r}")
        args = event.get("args")
        if not (isinstance(args, dict)
                and isinstance(args.get("name"), str)):
            errors.append(f"{where}: metadata needs args.name string")
        return
    # Every non-metadata phase needs a track and a timestamp.
    if not isinstance(event.get("tid"), int):
        errors.append(f"{where}: tid must be an integer")
    if not _is_number(event.get("ts"), 0.0):
        errors.append(f"{where}: ts must be a finite number >= 0")
    if not isinstance(event.get("name"), str):
        errors.append(f"{where}: name must be a string")
    if phase == "X" and not _is_number(event.get("dur"), 0.0):
        errors.append(f"{where}: complete event needs finite dur >= 0")
    if phase == "i" and event.get("s") not in KNOWN_SCOPES:
        errors.append(f"{where}: instant scope must be one of "
                      f"{sorted(KNOWN_SCOPES)}")
    if phase in ("s", "f") and event.get("id") is None:
        errors.append(f"{where}: flow event needs an id")


def check_trace(trace: Any) -> Tuple[Errors, Dict[str, int]]:
    """All schema violations plus a per-phase event census."""
    census: Dict[str, int] = {}
    if not isinstance(trace, dict):
        return ["top level: not a JSON object"], census
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["top level: no traceEvents list"], census
    errors: Errors = []
    flow_starts = set()
    flow_ends = []
    for index, event in enumerate(events):
        check_event(event, f"traceEvents[{index}]", errors)
        if isinstance(event, dict):
            phase = str(event.get("ph"))
            census[phase] = census.get(phase, 0) + 1
            # repr: a malformed id must not make the key unhashable.
            key = repr((event.get("pid"), event.get("cat"),
                        event.get("id")))
            if phase == "s":
                flow_starts.add(key)
            elif phase == "f":
                flow_ends.append((index, key))
    errors.extend(f"traceEvents[{index}]: flow finish without a "
                  f"matching start (pid, cat, id)={key}"
                  for index, key in flow_ends if key not in flow_starts)
    return errors, census


# ----------------------------------------------------------------------
# Performance reports
# ----------------------------------------------------------------------
def _check_summary(entry: Any, where: str, errors: Errors) -> None:
    if not isinstance(entry, dict):
        errors.append(f"{where}: not an object")
        return
    if not isinstance(entry.get("runs"), int) or entry["runs"] < 1:
        errors.append(f"{where}.runs: must be a positive integer")
    errors.extend(f"{where}.{name}: must be a finite number"
                  for name in SUMMARY_FIELDS
                  if not _is_number(entry.get(name)))
    errors.extend(f"{where}.{name}: must be >= 0"
                  for name in ("cov", "spread")
                  if _is_number(entry.get(name)) and entry[name] < 0)


def _check_usl(section: Any, configs: List[str], where: str,
               errors: Errors) -> None:
    if not isinstance(section, dict):
        errors.append(f"{where}: not an object")
        return
    if "error" in section:
        if not isinstance(section["error"], str):
            errors.append(f"{where}.error: must be a string")
        return
    fit = section.get("fit")
    if not isinstance(fit, dict):
        errors.append(f"{where}.fit: missing")
    else:
        errors.extend(f"{where}.fit.{name}: must be a finite number"
                      for name in ("gamma", "sigma", "kappa", "r_squared")
                      if not _is_number(fit.get(name)))
    table = section.get("table")
    if not isinstance(table, list) or not table:
        errors.append(f"{where}.table: must be a non-empty list")
        return
    for index, row in enumerate(table):
        row_where = f"{where}.table[{index}]"
        if not isinstance(row, dict):
            errors.append(f"{row_where}: not an object")
            continue
        if not isinstance(row.get("config"), str):
            errors.append(f"{row_where}.config: must be a string")
        bad = [name for name in ("x",) + USL_ROW_FIELDS
               if not _is_number(row.get(name))]
        errors.extend(f"{row_where}.{name}: must be a finite number"
                      for name in bad)
        if not set(bad) & {"measured", "predicted", "residual"}:
            gap = row["measured"] - row["predicted"] - row["residual"]
            if abs(gap) > 1e-6 * max(1.0, abs(row["measured"])):
                errors.append(
                    f"{row_where}: residual inconsistent "
                    f"(measured - predicted - residual = {gap:g})")
    covered = [row.get("config") for row in table
               if isinstance(row, dict)]
    missing = [label for label in configs if label not in covered]
    if missing:
        errors.append(f"{where}.table: configs without a row: "
                      f"{missing}")


def _check_service(section: Any, errors: Errors) -> None:
    if not isinstance(section, dict):
        errors.append("service: not an object")
        return
    if not isinstance(section.get("records"), int):
        errors.append("service.records: must be an integer")
    for census in ("by_request", "by_outcome"):
        table = section.get(census)
        if not isinstance(table, dict) \
                or not all(map(_is_count, table.values())):
            errors.append(f"service.{census}: must map names to "
                          "non-negative integers")
    latency = section.get("latency")
    if not isinstance(latency, dict):
        errors.append("service.latency: missing")
        return
    for name, entry in latency.items():
        where = f"service.latency.{name}"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(entry.get("count"), int):
            errors.append(f"{where}.count: must be an integer")
        errors.extend(f"{where}.{field}: must be a finite number >= 0"
                      for field in ("mean_seconds", "p50_seconds",
                                    "p95_seconds", "p99_seconds")
                      if not _is_number(entry.get(field), 0.0))


def _section(report: Dict[str, Any], path: str) -> Any:
    """``report`` at a dotted path, or None where a level is missing."""
    value: Any = report
    for key in path.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    return value


def check_report(report: Any) -> Tuple[Errors, Dict[str, int]]:
    """All schema violations plus a per-section presence census."""
    if not isinstance(report, dict):
        return ["top level: not a JSON object"], {}
    errors = [f"top level: missing section {name!r}"
              for name in REQUIRED_SECTIONS if name not in report]
    if errors:
        return errors, {}
    if report["format"] != REPORT_FORMAT:
        errors.append(f"format: expected {REPORT_FORMAT}, "
                      f"got {report['format']!r}")
    configs = report["configs"]
    if not isinstance(configs, list) or not configs \
            or not all(isinstance(label, str) for label in configs):
        errors.append("configs: must be a non-empty list of strings")
        configs = []
    seeds = _section(report, "seed_panel.seeds")
    if not isinstance(seeds, list) or not seeds:
        errors.append("seed_panel.seeds: must be a non-empty list")
    for scheduler in ("stock", "asym"):
        table = _section(report, f"throughput.{scheduler}")
        if not isinstance(table, dict):
            errors.append(f"throughput.{scheduler}: missing")
            continue
        for label in configs:
            if label not in table:
                errors.append(f"throughput.{scheduler}: no entry "
                              f"for {label!r}")
            else:
                _check_summary(table[label],
                               f"throughput.{scheduler}.{label}", errors)
        _check_usl(_section(report, f"usl.{scheduler}"), configs,
                   f"usl.{scheduler}", errors)
    if not isinstance(report["deltas"], dict):
        errors.append("deltas: not an object")
    else:
        for label in configs:
            entry = report["deltas"].get(label)
            if not isinstance(entry, dict) or not all(
                    _is_number(entry.get(name))
                    for name in ("stock", "asym", "speedup")):
                errors.append(f"deltas.{label}: needs finite "
                              "stock/asym/speedup numbers")
            elif entry["speedup"] <= 0:
                errors.append(f"deltas.{label}.speedup: must be > 0")
    per_config = _section(report, "variability.per_config")
    if not isinstance(report["variability"], dict):
        errors.append("variability: not an object")
    elif not isinstance(per_config, dict):
        errors.append("variability.per_config: missing")
    else:
        for label in configs:
            entry = per_config.get(label)
            if not isinstance(entry, dict):
                errors.append(f"variability.per_config.{label}: missing")
                continue
            for scheduler in ("stock", "asym"):
                _check_summary(
                    entry.get(scheduler),
                    f"variability.per_config.{label}.{scheduler}", errors)
    if "service" in report:
        _check_service(report["service"], errors)
    return errors, {name: 1 for name in report}


def check_markdown(text: str) -> Errors:
    """Reader-facing headings a rendered report must carry."""
    return [f"missing heading {heading!r}"
            for heading in MARKDOWN_HEADINGS if heading not in text]


# ----------------------------------------------------------------------
# Run ledgers
# ----------------------------------------------------------------------
def ledger_schema_errors(record: Any, index: int = 0) -> Errors:
    """Schema violations of one run-ledger record."""
    where = f"record[{index}]"
    if not isinstance(record, dict):
        return [f"{where}: not an object"]
    errors: Errors = []
    if record.get("format") != LEDGER_FORMAT:
        errors.append(f"{where}: format must be {LEDGER_FORMAT}")
    if not isinstance(record.get("index"), int):
        errors.append(f"{where}: index must be an integer")
    if record.get("request") not in REQUEST_KINDS:
        errors.append(f"{where}: unknown request kind "
                      f"{record.get('request')!r}")
    if record.get("outcome") not in OUTCOMES:
        errors.append(f"{where}: unknown outcome "
                      f"{record.get('outcome')!r}")
    # Scenario requests that reached the backend carry a task census.
    if record.get("request") in ("run", "sweep") and record.get(
            "outcome") in ("ok", "worker_crashed", "internal"):
        errors.extend(f"{where}: {name} must be a non-negative integer"
                      for name in TASK_CENSUS
                      if not _is_count(record.get(name)))
    errors.extend(f"{where}: {name} must be a non-negative number"
                  for name in LATENCY_FIELDS
                  if name in record and not _is_number(record[name], 0.0))
    return errors


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def _file_errors(path: str, text: str) -> Tuple[Errors, str]:
    """The violations of one file under the rules it selects, and a
    one-line description of what was checked."""
    if path.endswith(".md"):
        return check_markdown(text), \
            f"report, {len(text.splitlines())} lines"
    if path.endswith(".jsonl"):
        records = [json.loads(line) for line in text.splitlines()
                   if line.strip()]
        errors = [error for index, record in enumerate(records)
                  for error in ledger_schema_errors(record, index)]
        return errors, f"ledger, {len(records)} records"
    data = json.loads(text)
    if isinstance(data, dict) and "traceEvents" in data:
        errors, census = check_trace(data)
        shape = ", ".join(f"{phase}={count}"
                          for phase, count in sorted(census.items()))
        return errors, f"trace, {sum(census.values())} events: {shape}"
    errors, census = check_report(data)
    return errors, f"report, sections: {', '.join(sorted(census))}"


def check_file(path: str) -> bool:
    """Check one file, printing its verdict; True when it passes."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            errors, shape = _file_errors(path, handle.read())
    except (OSError, ValueError) as exc:
        print(f"{path}: unreadable: {exc}")
        return False
    if errors:
        for error in errors[:20]:
            print(f"{path}: {error}")
        if len(errors) > 20:
            print(f"{path}: ... and {len(errors) - 20} more")
        print(f"{path}: FAIL ({len(errors)} violations; {shape})")
        return False
    print(f"{path}: ok ({shape})")
    return True


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0])
        print(f"usage: {sys.argv[0]} FILE [FILE ...]")
        return 2
    return 0 if all([check_file(path) for path in argv]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
