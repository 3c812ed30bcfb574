"""Wire protocol of the scenario service: newline-delimited JSON.

Every message is one JSON object on one line, with a ``type`` field.

Requests (client -> server)::

    {"type": "sweep", "id": 1, "workload": "tpch", "params": {...},
     "configs": ["4f-0s", "2f-2s/8"], "runs": 3, "base_seed": 100,
     "scheduler": "stock", "faults": {"events": [...]}|null,
     "trace": ["exec", "sched"]|null, "coalesce": true|false|null}
    {"type": "stats",     "id": 2}
    {"type": "ping",      "id": 3}
    {"type": "shutdown",  "id": 4, "drain": true}

Responses (server -> client)::

    {"type": "result", "id": ..., "results": [<result payload>...],
     "tasks": N, "cache_hits": H, "coalesced": C,
     "simulations_run": S}
    {"type": "error", "id": ..., "error": "invalid"|"overloaded"|
     "worker_crashed"|"shutting_down"|"internal",
     "messages": ["..."], ...}
    {"type": "stats", "id": ..., "counters": {...}}
    {"type": "pong", "id": ...}
    {"type": "shutdown", "id": ..., "draining": N}

A sweep expands to the *same deterministic task order* a
:class:`~repro.experiments.runner.Runner` would produce (config-major,
then ``base_seed + i``), so a service response reassembles task
results into exactly the sequence a local
:class:`~repro.experiments.parallel.SerialBackend` returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.faults import FaultSchedule
from repro.machine.topology import MachineConfig
from repro.experiments.parallel import RunTask
from repro.service import registry
from repro.workloads.base import RunOptions, Workload

#: Protocol/request limits, part of admission control: a single
#: request may not expand to more tasks than this (split big sweeps
#: into several requests; the server's queue bound is the real
#: backpressure valve, this just caps per-message blast radius).
MAX_TASKS_PER_REQUEST = 4096

REQUEST_TYPES = ("sweep", "stats", "shutdown", "ping")


class ProtocolError(ReproError):
    """A request failed validation; ``messages`` lists every problem."""

    def __init__(self, messages: List[str]) -> None:
        super().__init__("; ".join(messages))
        self.messages = list(messages)


@dataclass
class ScenarioRequest:
    """A validated ``sweep`` request.

    Every task carries ``options``: the request's fault schedule,
    trace categories and coalescing mode, as
    :class:`~repro.workloads.base.RunOptions` (a request that leaves
    ``coalesce`` unset gets the server's default).
    """

    workload_name: str
    workload: Workload
    configs: List[str]
    runs: int
    base_seed: int
    scheduler: str
    options: RunOptions
    request_id: Optional[Any] = None
    tasks: List[RunTask] = field(default_factory=list)

    def __post_init__(self) -> None:
        factory = registry.scheduler_factory(self.scheduler)
        self.tasks = [
            RunTask(self.workload, label, self.base_seed + i, factory,
                    self.options)
            for label in self.configs for i in range(self.runs)]


def decode_line(line: bytes) -> Dict[str, Any]:
    """One wire line -> message dict (raises ProtocolError)."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError([f"malformed JSON: {exc}"]) from None
    if not isinstance(message, dict):
        raise ProtocolError(
            [f"expected a JSON object, got {type(message).__name__}"])
    kind = message.get("type")
    if kind not in REQUEST_TYPES:
        raise ProtocolError(
            [f"unknown request type {kind!r}; expected one of "
             f"{sorted(REQUEST_TYPES)}"])
    return message


def encode(message: Dict[str, Any]) -> bytes:
    """Message dict -> one wire line (deterministic key order).

    A ``result`` message's ``results`` are payload texts
    (:func:`repro.service.cache.result_text`, as the cache stores
    them) and are spliced into the line verbatim.  Each text is the
    ``sort_keys`` encoding of its payload, so the line is byte for
    byte ``json.dumps`` of the message with the decoded payloads.
    """
    if message.get("type") != "result":
        return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")
    fields = []
    for name, value in sorted(message.items()):
        text = ("[" + ", ".join(value) + "]" if name == "results"
                else json.dumps(value, sort_keys=True))
        fields.append(f"{json.dumps(name)}: {text}")
    return ("{" + ", ".join(fields) + "}\n").encode("utf-8")


def _check_config(label: Any, schedule: Optional[FaultSchedule],
                  problems: List[str]) -> None:
    if not isinstance(label, str):
        problems.append(f"config must be a string, got {label!r}")
        return
    try:
        n_cores = MachineConfig.parse(label).n_cores
    except (ReproError, ValueError) as exc:
        problems.append(f"config {label!r}: {exc}")
        return
    if schedule is not None:
        # The worker would fail to install a schedule that misfits.
        try:
            schedule.validate(n_cores)
        except ConfigurationError as exc:
            problems.append(f"'faults' on config {label!r}: {exc}")


def parse_scenario(message: Dict[str, Any]) -> ScenarioRequest:
    """Validate a ``sweep`` message into a ScenarioRequest.

    Collects *every* problem before raising, so a client sees the full
    shape of what it got wrong in one round trip.
    """
    problems: List[str] = []

    workload_name = message.get("workload")
    params = message.get("params", {})
    if not isinstance(workload_name, str):
        problems.append("missing or non-string 'workload'")
    if not isinstance(params, dict):
        problems.append(f"'params' must be an object, got {params!r}")
        params = {}

    faults = message.get("faults")
    schedule: Optional[FaultSchedule] = None
    if faults is not None:
        try:
            if not isinstance(faults, dict):
                raise ValueError(f"expected an object, got {faults!r}")
            schedule = FaultSchedule.from_json(json.dumps(faults))
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"'faults': {exc}")

    configs = message.get("configs")
    runs = message.get("runs", 1)
    base_seed = message.get("base_seed", 100)
    if not isinstance(configs, list) or not configs:
        problems.append("missing or empty 'configs'")
        configs = []
    for label in configs:
        _check_config(label, schedule, problems)
    if (isinstance(runs, bool) or not isinstance(runs, int)
            or runs < 1):
        problems.append(f"'runs' must be a positive integer, "
                        f"got {runs!r}")
        runs = 1
    if isinstance(base_seed, bool) or not isinstance(base_seed, int):
        problems.append(f"seed must be an integer, got {base_seed!r}")
        base_seed = 0

    scheduler = message.get("scheduler", "stock")
    if not isinstance(scheduler, str):
        problems.append(f"'scheduler' must be a string, "
                        f"got {scheduler!r}")
        scheduler = "stock"
    else:
        try:
            registry.scheduler_factory(scheduler)
        except ValueError as exc:
            problems.append(str(exc))
            scheduler = "stock"

    trace = message.get("trace")
    trace_categories: Optional[FrozenSet[str]] = None
    if trace is not None:
        if (not isinstance(trace, list)
                or not all(isinstance(c, str) and c.strip()
                           for c in trace)
                or not trace):
            problems.append(
                f"'trace' must be a non-empty list of category "
                f"names or null, got {trace!r}")
        else:
            trace_categories = frozenset(trace)

    coalesce = message.get("coalesce")
    if coalesce is not None and not isinstance(coalesce, bool):
        problems.append(f"'coalesce' must be a boolean or null, "
                        f"got {coalesce!r}")
        coalesce = None

    workload: Optional[Workload] = None
    if isinstance(workload_name, str):
        try:
            workload = registry.build_workload(workload_name, params)
        except ValueError as exc:
            problems.append(str(exc))

    if not problems and len(configs) * runs > MAX_TASKS_PER_REQUEST:
        problems.append(
            f"request expands to {len(configs) * runs} tasks, over "
            f"the per-request cap of {MAX_TASKS_PER_REQUEST}; split "
            "the sweep")
    if problems:
        raise ProtocolError(problems)
    assert workload is not None
    options = RunOptions(faults=schedule, trace=trace_categories)
    if coalesce is not None:
        options = replace(options, coalesce=coalesce)
    return ScenarioRequest(
        workload_name=workload_name, workload=workload,
        configs=list(configs), runs=runs, base_seed=base_seed,
        scheduler=scheduler, options=options,
        request_id=message.get("id"))


def error_response(request_id: Any, error: str,
                   messages: List[str],
                   **extra: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {
        "type": "error", "id": request_id, "error": error,
        "messages": list(messages)}
    response.update(extra)
    return response
