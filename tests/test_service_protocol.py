"""Tests for the scenario service wire protocol and validation.

The contract under test: a valid request expands to exactly the
deterministic task order a local Runner would use; an invalid request
is rejected with *every* problem listed in one structured error, never
an arbitrary traceback.
"""

import json

import pytest

from repro.faults import FaultSchedule
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.service import registry
from repro.service.protocol import (
    MAX_TASKS_PER_REQUEST,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    parse_scenario,
)
from repro.workloads.base import RunOptions


def _sweep(**overrides):
    message = {"type": "sweep", "id": 1, "workload": "tpch",
               "params": {"parallel_degree": 2,
                          "optimization_degree": 3},
               "configs": ["4f-0s", "2f-2s/8"], "runs": 2,
               "base_seed": 100}
    message.update(overrides)
    return message


class TestDecode:
    def test_round_trip(self):
        message = {"type": "ping", "id": 7}
        assert decode_line(encode(message)) == message

    def test_encode_is_deterministic(self):
        a = encode({"b": 1, "a": 2, "type": "ping"})
        b = encode({"a": 2, "type": "ping", "b": 1})
        assert a == b and a.endswith(b"\n")

    def test_malformed_json_raises(self):
        with pytest.raises(ProtocolError, match="malformed JSON"):
            decode_line(b"{not json\n")

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2]\n")

    def test_unknown_type_raises(self):
        for line in (b'{"type": "explode"}\n', b'{"type": "run"}\n',
                     b'{"type": "subscribe"}\n'):
            with pytest.raises(ProtocolError, match="unknown request"):
                decode_line(line)


class TestParseScenario:
    def test_sweep_expands_in_deterministic_task_order(self):
        request = parse_scenario(_sweep())
        assert [(t.config, t.seed) for t in request.tasks] == [
            ("4f-0s", 100), ("4f-0s", 101),
            ("2f-2s/8", 100), ("2f-2s/8", 101)]
        assert request.request_id == 1

    def test_scheduler_name_resolves_to_factory(self):
        request = parse_scenario(_sweep(scheduler="asym"))
        assert all(t.scheduler_factory is AsymmetryAwareScheduler
                   for t in request.tasks)
        stock = parse_scenario(_sweep(scheduler="stock"))
        assert all(t.scheduler_factory is None for t in stock.tasks)

    def test_trace_and_coalesce_pass_through(self):
        request = parse_scenario(
            _sweep(trace=["exec", "sched"], coalesce=False))
        assert request.options.trace == frozenset({"exec", "sched"})
        assert request.options.coalesce is False
        assert all(t.options is request.options for t in request.tasks)
        default = parse_scenario(_sweep())
        assert default.options == RunOptions()

    def test_faults_ride_on_every_task(self):
        schedule = {"events": [
            {"kind": "throttle", "time": 0.01, "core": 0,
             "duty_cycle": 0.5, "duration": 0.01}]}
        request = parse_scenario(_sweep(faults=schedule))
        expected = FaultSchedule.from_json(json.dumps(schedule))
        assert request.options.faults.to_json() == expected.to_json()
        assert all(t.options is request.options for t in request.tasks)

    def test_faults_as_a_json_string_rejected(self):
        schedule = {"events": [
            {"kind": "throttle", "time": 0.01, "core": 0,
             "duty_cycle": 0.5}]}
        with pytest.raises(ProtocolError,
                           match="'faults': expected an object"):
            parse_scenario(_sweep(faults=json.dumps(schedule)))

    def test_all_problems_collected_in_one_error(self):
        message = _sweep(workload="nosuch",
                         configs=["banana", "4f-0s"],
                         runs=0, base_seed="ten",
                         scheduler="turbo", trace=[],
                         coalesce="yes")
        with pytest.raises(ProtocolError) as excinfo:
            parse_scenario(message)
        text = "\n".join(excinfo.value.messages)
        assert len(excinfo.value.messages) >= 6
        for fragment in ("unknown workload", "banana", "'runs'",
                         "seed must be", "unknown scheduler",
                         "'trace'", "'coalesce'"):
            assert fragment in text

    def test_missing_configs_rejected(self):
        with pytest.raises(ProtocolError, match="empty 'configs'"):
            parse_scenario(_sweep(configs=[]))

    def test_unknown_workload_param_rejected(self):
        with pytest.raises(ProtocolError, match="unknown parameter"):
            parse_scenario(_sweep(params={"warp_speed": 9}))

    def test_wrong_param_type_rejected(self):
        with pytest.raises(ProtocolError,
                           match="'parallel_degree'"):
            parse_scenario(_sweep(params={"parallel_degree": "two"}))

    def test_bool_runs_rejected(self):
        with pytest.raises(ProtocolError, match="'runs'"):
            parse_scenario(_sweep(runs=True))

    def test_malformed_faults_rejected(self):
        with pytest.raises(ProtocolError, match="'faults'"):
            parse_scenario(_sweep(faults={"events": [{"bad": 1}]}))

    @pytest.mark.parametrize("workload, param, value", [
        ("specjbb", "vm", "jrockt"),
        ("specjbb", "lock_kind", "ticket"),
        ("tpch", "lock_kind", "ticket"),
        ("lockstress", "lock_kind", "ticket"),
    ])
    def test_unknown_preset_or_lock_kind_rejected(self, workload, param,
                                                  value):
        """A name no model knows is a malformed request: it must fail
        validation, not the worker that builds the model."""
        with pytest.raises(ProtocolError,
                           match=f"parameter '{param}': expected one "
                                 f"of .*, got '{value}'"):
            parse_scenario(_sweep(workload=workload,
                                  params={param: value}))

    @pytest.mark.parametrize("events, fragment", [
        ([{"kind": "throttle", "time": 0.01, "core": 7,
           "duty_cycle": 0.5}], "targets core 7"),
        ([{"kind": "offline", "time": 0.01, "core": core}
          for core in range(4)], "every core offline"),
    ], ids=["core-out-of-range", "all-cores-offline"])
    def test_fault_schedule_must_fit_every_config(self, events,
                                                  fragment):
        with pytest.raises(ProtocolError) as excinfo:
            parse_scenario(_sweep(configs=["4f-0s", "2f-2s/8"],
                                  faults={"events": events}))
        messages = excinfo.value.messages
        assert [m.split(":")[0] for m in messages] == [
            "'faults' on config '4f-0s'",
            "'faults' on config '2f-2s/8'"]
        assert all(fragment in m for m in messages)

    def test_per_request_task_cap(self):
        message = _sweep(configs=["4f-0s"],
                         runs=MAX_TASKS_PER_REQUEST + 1)
        with pytest.raises(ProtocolError, match="per-request cap"):
            parse_scenario(message)


class TestRegistry:
    def test_every_listed_workload_builds(self):
        for name in registry.WORKLOADS:
            workload = registry.build_workload(name, {})
            assert workload.name

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError, match="unknown workload"):
            registry.build_workload("fortran", {})

    def test_gc_kind_accepts_names(self):
        workload = registry.build_workload(
            "specjbb", {"gc": "parallel"})
        assert workload.gc.name.lower() == "parallel"

    def test_unknown_scheduler_raises(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            registry.scheduler_factory("warp")


class TestErrorResponse:
    def test_shape_and_extras(self):
        response = error_response(9, "overloaded", ["too busy"],
                                  pending_tasks=12)
        assert response == {"type": "error", "id": 9,
                            "error": "overloaded",
                            "messages": ["too busy"],
                            "pending_tasks": 12}
        json.dumps(response)  # wire-serializable
