"""End-to-end and failure-path tests for the scenario server.

The contracts under test, straight from the service's guarantees:

* a warm-cache resubmission performs **zero** simulations and returns
  results byte-identical to a fresh ``SerialBackend`` run;
* duplicate in-flight scenarios coalesce onto one execution;
* the bounded admission queue rejects excess work with a structured
  ``overloaded`` error instead of queueing without limit;
* a task whose worker process dies is retried once, then surfaces a
  structured ``worker_crashed`` error without wedging the queue;
* malformed requests, and the retired ``run`` and ``subscribe``
  types, get structured ``invalid`` errors;
* a graceful drain finishes in-flight batches, rejects new scenarios
  and stops.
"""

import asyncio
import contextlib
import json
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.parallel import (
    ProcessPoolBackend,
    RunTask,
    SerialBackend,
    WorkerCrashError,
    make_backend,
    task_fingerprint,
)
from repro.service import protocol
from repro.service.cache import (
    ResultCache,
    canonical_result_json,
    result_from_payload,
    result_to_payload,
)
from repro.service.server import ScenarioServer
from repro.workloads.base import RunResult
from repro.workloads.lockstress import LockStress

TPCH_PARAMS = {"parallel_degree": 2, "optimization_degree": 3,
               "queries": [3]}


def _sweep_message(**overrides):
    message = {"type": "sweep", "workload": "tpch",
               "params": dict(TPCH_PARAMS),
               "configs": ["4f-0s", "2f-2s/8"], "runs": 2,
               "base_seed": 100}
    message.update(overrides)
    return message


#: Request types older servers accepted, as those servers' clients
#: sent them.  A one-config ``sweep`` replaces ``run``.
RETIRED_REQUESTS = {
    "run": {"type": "run", "workload": "tpch",
            "params": dict(TPCH_PARAMS), "config": "4f-0s",
            "seed": 100},
    "subscribe": {"type": "subscribe"},
}


# ----------------------------------------------------------------------
# Async test harness (no pytest-asyncio in the image: asyncio.run)
# ----------------------------------------------------------------------
@contextlib.asynccontextmanager
async def running_server(**kwargs):
    kwargs.setdefault("host", "127.0.0.1")
    kwargs.setdefault("port", 0)
    server = ScenarioServer(**kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.aclose()


class Connection:
    """One NDJSON connection driven from the test's event loop."""

    def __init__(self, server):
        self.server = server
        self.reader = None
        self.writer = None

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.server.host, self.server.port)
        return self

    async def __aexit__(self, *exc_info):
        self.writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await self.writer.wait_closed()

    async def send(self, message):
        if isinstance(message, (bytes, bytearray)):
            self.writer.write(message)
        else:
            self.writer.write(protocol.encode(message))
        await self.writer.drain()

    async def read(self, timeout=30.0):
        line = await asyncio.wait_for(self.reader.readline(), timeout)
        assert line, "server closed the connection"
        return json.loads(line)

    async def rpc(self, message, timeout=30.0):
        await self.send(message)
        return await self.read(timeout)


async def one_rpc(server, message, timeout=30.0):
    async with Connection(server) as connection:
        return await connection.rpc(message, timeout)


class StubExecutor:
    """Deterministic executor double: optional gate, synthetic results."""

    def __init__(self, gate=None):
        self.gate = gate
        self.calls = []

    def run_tasks(self, tasks):
        if self.gate is not None:
            assert self.gate.wait(30)
        self.calls.append([(t.config, t.seed) for t in tasks])
        return [RunResult(workload=t.workload.name, config=t.config,
                          seed=t.seed,
                          metrics={"throughput": float(t.seed)})
                for t in tasks]


# ----------------------------------------------------------------------
# The acceptance criterion: warm == zero simulations, byte-identical
# ----------------------------------------------------------------------
class TestColdWarmIdentity:
    def _roundtrip(self, tmp_path, extra):
        async def scenario():
            async with running_server(
                    cache=ResultCache(str(tmp_path / "cache")),
                    executor=ProcessPoolBackend(jobs=2)) as server:
                cold = await one_rpc(
                    server, _sweep_message(**extra), timeout=120)
                warm = await one_rpc(
                    server, _sweep_message(**extra), timeout=120)
                return cold, warm
        return asyncio.run(scenario())

    @pytest.mark.parametrize("extra", [
        {},
        {"coalesce": False},
    ], ids=["coalesce", "no-coalesce"])
    def test_warm_resubmission_is_free_and_identical(self, tmp_path,
                                                     extra):
        cold, warm = self._roundtrip(tmp_path, extra)
        assert cold["type"] == "result"
        assert cold["simulations_run"] == 4
        assert cold["cache_hits"] == 0
        assert warm["simulations_run"] == 0
        assert warm["cache_hits"] == 4
        assert json.dumps(cold["results"], sort_keys=True) == \
            json.dumps(warm["results"], sort_keys=True)

    def test_service_results_match_a_fresh_serial_backend(self,
                                                          tmp_path):
        cold, warm = self._roundtrip(tmp_path, {})
        request = protocol.parse_scenario(_sweep_message())
        local = SerialBackend().execute(request.tasks)
        for payload, reference in zip(warm["results"], local):
            assert canonical_result_json(
                result_from_payload(payload)) == \
                canonical_result_json(reference)


# ----------------------------------------------------------------------
# Deduplication and admission control (stub executor, no simulation)
# ----------------------------------------------------------------------
class TestDedupAndAdmission:
    def test_duplicate_inflight_scenarios_coalesce(self):
        gate = threading.Event()
        stub = StubExecutor(gate=gate)

        async def scenario():
            async with running_server(executor=stub) as server:
                async with Connection(server) as first, \
                        Connection(server) as second:
                    await first.send(_sweep_message())
                    # Wait until the batch is registered in flight.
                    for _ in range(100):
                        if server._inflight:
                            break
                        await asyncio.sleep(0.01)
                    assert server._inflight
                    await second.send(_sweep_message())
                    # The duplicate must classify before the gate
                    # opens; poll the coalesce counter.
                    for _ in range(100):
                        if server.counters.get(
                                "service.inflight_coalesced") >= 4:
                            break
                        await asyncio.sleep(0.01)
                    gate.set()
                    a = await first.read()
                    b = await second.read()
                    return a, b
        a, b = asyncio.run(scenario())
        assert a["simulations_run"] == 4
        assert b["simulations_run"] == 0
        assert b["coalesced"] == 4
        assert json.dumps(a["results"], sort_keys=True) == \
            json.dumps(b["results"], sort_keys=True)
        assert len(stub.calls) == 1  # one execution for two requests

    def test_duplicates_within_one_request_simulate_once(self):
        stub = StubExecutor()

        async def scenario():
            async with running_server(executor=stub) as server:
                return await one_rpc(server, _sweep_message(
                    configs=["4f-0s", "4f-0s"], runs=1))
        response = asyncio.run(scenario())
        assert response["tasks"] == 2
        assert response["simulations_run"] == 1
        assert response["coalesced"] == 1
        assert response["results"][0] == response["results"][1]

    def test_overloaded_rejection_shape(self):
        gate = threading.Event()
        stub = StubExecutor(gate=gate)

        async def scenario():
            async with running_server(
                    executor=stub, max_pending_tasks=4) as server:
                async with Connection(server) as first, \
                        Connection(server) as second:
                    await first.send(_sweep_message())  # 4 tasks
                    for _ in range(100):
                        if server._pending_tasks == 4:
                            break
                        await asyncio.sleep(0.01)
                    rejected = await second.rpc(
                        _sweep_message(base_seed=900))
                    gate.set()
                    accepted = await first.read()
                    # After the batch retires, capacity is back.
                    retry = await second.rpc(
                        _sweep_message(base_seed=900))
                    return rejected, accepted, retry
        rejected, accepted, retry = asyncio.run(scenario())
        assert rejected["type"] == "error"
        assert rejected["error"] == "overloaded"
        assert rejected["pending_tasks"] == 4
        assert rejected["max_pending_tasks"] == 4
        assert rejected["messages"]
        assert accepted["simulations_run"] == 4
        assert retry["type"] == "result"  # queue was not wedged

    def test_cache_hits_bypass_admission_control(self, tmp_path):
        stub = StubExecutor()

        async def scenario():
            async with running_server(
                    executor=stub, max_pending_tasks=4,
                    cache=ResultCache(str(tmp_path / "cache"))) as server:
                first = await one_rpc(server, _sweep_message())
                # Fully cached: fresh=0 admits even at the bound.
                warm = await one_rpc(server, _sweep_message())
                return first, warm
        first, warm = asyncio.run(scenario())
        assert first["simulations_run"] == 4
        assert warm["simulations_run"] == 0
        assert warm["cache_hits"] == 4


# ----------------------------------------------------------------------
# Result lines spliced from stored payload texts
# ----------------------------------------------------------------------
class TestSplicedResultLines:
    @pytest.mark.parametrize("memory_entries", [256, 0],
                             ids=["memory-hit", "disk-hit"])
    def test_lines_decode_to_the_result_payloads(self, tmp_path,
                                                 memory_entries):
        """Cold, in-flight-coalesced and warm answers all decode to
        exactly the ``result_to_payload`` dicts of the results."""
        gate = threading.Event()
        stub = StubExecutor(gate=gate)
        cache = ResultCache(str(tmp_path / "cache"),
                            max_memory_entries=memory_entries)

        async def scenario():
            async with running_server(executor=stub,
                                      cache=cache) as server:
                async with Connection(server) as first, \
                        Connection(server) as second:
                    await first.send(_sweep_message())
                    for _ in range(100):
                        if server._inflight:
                            break
                        await asyncio.sleep(0.01)
                    await second.send(_sweep_message())
                    for _ in range(100):
                        if server.counters.get(
                                "service.inflight_coalesced") >= 4:
                            break
                        await asyncio.sleep(0.01)
                    gate.set()
                    cold = await first.reader.readline()
                    coalesced = await second.reader.readline()
                    await first.send(_sweep_message())
                    warm = await first.reader.readline()
                    return cold, coalesced, warm
        lines = asyncio.run(scenario())
        tasks = protocol.parse_scenario(_sweep_message()).tasks
        expected = [result_to_payload(result)
                    for result in StubExecutor().run_tasks(tasks)]
        responses = [json.loads(line) for line in lines]
        for line, response in zip(lines, responses):
            assert response["results"] == expected
            # Byte for byte what encoding the decoded message gives.
            assert line == (json.dumps(response, sort_keys=True)
                            + "\n").encode("utf-8")
        cold, coalesced, warm = responses
        assert cold["simulations_run"] == 4
        assert coalesced["coalesced"] == 4
        assert warm["cache_hits"] == 4
        assert cache.counters.get(
            "service.cache.disk_hits" if memory_entries == 0
            else "service.cache.memory_hits") == 4


# ----------------------------------------------------------------------
# Fault paths: malformed requests, worker death, graceful drain
# ----------------------------------------------------------------------
class TestFaultPaths:
    def test_malformed_json_gets_structured_error(self):
        async def scenario():
            async with running_server(
                    executor=StubExecutor()) as server:
                async with Connection(server) as connection:
                    bad = await connection.rpc(b"{not json\n")
                    # The connection survives a bad line.
                    pong = await connection.rpc({"type": "ping"})
                    return bad, pong
        bad, pong = asyncio.run(scenario())
        assert bad["type"] == "error" and bad["error"] == "invalid"
        assert "malformed JSON" in bad["messages"][0]
        assert pong["type"] == "pong"

    @pytest.mark.parametrize("kind", sorted(RETIRED_REQUESTS))
    def test_retired_request_type_is_invalid(self, kind):
        stub = StubExecutor()

        async def scenario():
            async with running_server(executor=stub) as server:
                async with Connection(server) as connection:
                    refused = await connection.rpc(
                        RETIRED_REQUESTS[kind])
                    # The connection survives the refusal.
                    answer = await connection.rpc(_sweep_message(
                        configs=["4f-0s"], runs=1))
                    return refused, answer
        refused, answer = asyncio.run(scenario())
        assert refused["type"] == "error"
        assert refused["error"] == "invalid"
        assert f"unknown request type {kind!r}" in refused["messages"][0]
        assert answer["type"] == "result" and answer["tasks"] == 1
        assert stub.calls == [[("4f-0s", 100)]]

    def test_invalid_scenario_lists_every_problem(self):
        async def scenario():
            async with running_server(
                    executor=StubExecutor()) as server:
                return await one_rpc(server, _sweep_message(
                    workload="nosuch", configs=["banana"], runs=0))
        response = asyncio.run(scenario())
        assert response["error"] == "invalid"
        assert len(response["messages"]) >= 3

    @pytest.mark.parametrize("overrides", [
        {"workload": "specjbb", "params": {"vm": "jrockt"}},
        {"params": dict(TPCH_PARAMS, lock_kind="ticket")},
        {"faults": {"events": [{"kind": "throttle", "time": 0.01,
                                "core": 7, "duty_cycle": 0.5}]}},
    ], ids=["vm", "lock_kind", "faults"])
    def test_unbuildable_scenario_is_invalid_before_admission(
            self, overrides):
        """A sweep the worker could not build is refused as
        ``invalid`` up front: nothing is simulated, and it counts as
        an invalid rejection rather than an internal error."""
        stub = StubExecutor()

        async def scenario():
            async with running_server(executor=stub) as server:
                response = await one_rpc(
                    server, _sweep_message(**overrides))
                stats = await one_rpc(server, {"type": "stats"})
                return response, stats
        response, stats = asyncio.run(scenario())
        assert response["error"] == "invalid", response
        assert stub.calls == []
        assert stats["counters"]["service.rejected.invalid"] == 1
        assert stats["pending_tasks"] == 0

    def test_executor_exception_is_an_internal_error(self):
        class Exploding:
            def run_tasks(self, tasks):
                raise RuntimeError("simulated engine bug")

        async def scenario():
            async with running_server(executor=Exploding()) as server:
                response = await one_rpc(server, _sweep_message())
                stats = await one_rpc(server, {"type": "stats"})
                return response, stats
        response, stats = asyncio.run(scenario())
        assert response["error"] == "internal"
        assert "simulated engine bug" in response["messages"][0]
        assert stats["pending_tasks"] == 0  # budget released

    def test_graceful_drain_state_machine(self):
        gate = threading.Event()
        stub = StubExecutor(gate=gate)

        async def scenario():
            async with running_server(executor=stub) as server:
                async with Connection(server) as busy, \
                        Connection(server) as control:
                    await busy.send(_sweep_message())
                    for _ in range(100):
                        if server._pending_tasks:
                            break
                        await asyncio.sleep(0.01)
                    ack = await control.rpc(
                        {"type": "shutdown", "drain": True})
                    assert server.draining
                    # New scenarios are rejected while draining...
                    refused = await control.rpc(
                        _sweep_message(base_seed=900))
                    # ...but the in-flight batch still completes.
                    gate.set()
                    finished = await busy.read()
                    await asyncio.wait_for(server._stopped.wait(), 30)
                    return ack, refused, finished
        ack, refused, finished = asyncio.run(scenario())
        assert ack["type"] == "shutdown" and ack["draining"] == 4
        assert refused["error"] == "shutting_down"
        assert finished["type"] == "result"
        assert finished["simulations_run"] == 4


# ----------------------------------------------------------------------
# Worker-process death on the real pool
# ----------------------------------------------------------------------
class CrashOnceLockStress(LockStress):
    """Dies (hard) on the first run, succeeds on the retry.

    The flag file records that the crash already happened; it lives on
    disk so the knowledge survives the worker process it kills.
    """

    def __init__(self, flag_path, **kwargs):
        super().__init__(**kwargs)
        self.flag_path = flag_path

    def run_once(self, config, seed=100, scheduler_factory=None,
                 options=None):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as handle:
                handle.write("crashed\n")
            os._exit(17)
        return super().run_once(
            config, seed=seed, scheduler_factory=scheduler_factory,
            options=options)


class AlwaysCrashLockStress(LockStress):
    """Dies on every attempt: the poisoned-scenario case."""

    def run_once(self, config, seed=100, scheduler_factory=None,
                 options=None):
        os._exit(17)


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash workloads are defined in the test module and rely "
           "on fork inheriting it")


@needs_fork
class TestWorkerDeath:
    @pytest.mark.parametrize("front", ["server", "cli"])
    def test_task_retried_once_after_worker_death(self, tmp_path,
                                                  front):
        """The server's call (``run_tasks`` on its pool) and the
        CLI's (``execute`` on a ``--jobs 2`` backend) both rebuild
        the pool once and retry the task once."""
        cache = ResultCache()
        if front == "server":
            backend = ProcessPoolBackend(jobs=1)
            run = backend.run_tasks
        else:
            backend = make_backend(2, cache=cache)
            run = backend.execute
        task = RunTask(CrashOnceLockStress(
            str(tmp_path / "crashed.flag"),
            n_threads=2, duration=0.005), "2f-2s/8", 100)
        try:
            results = run([task])
        finally:
            backend.shutdown()
        assert len(results) == 1
        assert results[0].metrics["throughput"] > 0
        assert backend.counters.get("service.pool.retries") == 1
        assert backend.counters.get("service.pool.rebuilds") == 1
        if front == "cli":
            stored = cache.lookup(task_fingerprint(task))
            assert canonical_result_json(stored) == \
                canonical_result_json(results[0])

    def test_cli_backend_gives_up_on_a_task_that_dies_twice(self):
        backend = make_backend(2)
        task = RunTask(AlwaysCrashLockStress(
            n_threads=2, duration=0.005), "2f-2s/8", 100)
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                backend.execute([task])
        finally:
            backend.shutdown()
        assert len(excinfo.value.tasks) == 1
        assert backend.counters.get("service.pool.failures") == 1

    def test_server_survives_a_poisoned_scenario(self, tmp_path):
        async def scenario():
            async with running_server(
                    executor=ProcessPoolBackend(jobs=1),
                    cache=ResultCache(str(tmp_path / "cache"))) as server:
                # Poison the pool directly (the registry will not
                # build a crashing workload; inject the task).
                loop = asyncio.get_running_loop()
                poisoned = AlwaysCrashLockStress(
                    n_threads=2, duration=0.005)
                with pytest.raises(Exception) as excinfo:
                    await loop.run_in_executor(
                        None, server.executor.run_tasks,
                        [RunTask(poisoned, "2f-2s/8", 100)])
                # The service keeps serving after the crash.
                healthy = await one_rpc(server, {
                    "type": "sweep", "workload": "lockstress",
                    "params": {"n_threads": 2, "duration": 0.005},
                    "configs": ["2f-2s/8"], "base_seed": 100},
                    timeout=120)
                return excinfo.value, healthy
        error, healthy = asyncio.run(scenario())
        assert isinstance(error, WorkerCrashError)
        assert len(error.tasks) == 1
        assert healthy["type"] == "result"
        assert healthy["simulations_run"] == 1

    def test_worker_crash_surfaces_as_structured_response(self):
        """End-to-end: a crashing batch answers ``worker_crashed``."""
        class CrashingExecutor(ProcessPoolBackend):
            def __init__(self):
                super().__init__(jobs=1)

            def run_tasks(self, tasks):
                poisoned = [
                    type(t)(AlwaysCrashLockStress(
                        n_threads=2, duration=0.005),
                        t.config, t.seed, t.scheduler_factory)
                    for t in tasks]
                return super().run_tasks(poisoned)

        async def scenario():
            async with running_server(
                    executor=CrashingExecutor()) as server:
                response = await one_rpc(server, {
                    "type": "sweep", "workload": "lockstress",
                    "params": {"n_threads": 2, "duration": 0.005},
                    "configs": ["2f-2s/8"], "base_seed": 100},
                    timeout=120)
                stats = await one_rpc(server, {"type": "stats"})
                return response, stats
        response, stats = asyncio.run(scenario())
        assert response["type"] == "error"
        assert response["error"] == "worker_crashed"
        assert response["tasks"] == 1
        assert stats["pending_tasks"] == 0  # queue not wedged
        assert stats["inflight_keys"] == 0


# ----------------------------------------------------------------------
# The CLI front end (serve subprocess + in-process submit)
# ----------------------------------------------------------------------
class TestServiceCli:
    @pytest.fixture
    def served(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        port_file = tmp_path / "port"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file),
             "--cache-dir", str(tmp_path / "cache"), "--jobs", "2"],
            env=env, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while not port_file.exists():
            assert process.poll() is None, "server died on startup"
            assert time.monotonic() < deadline, "server never bound"
            time.sleep(0.1)
        try:
            yield port_file
        finally:
            if process.poll() is None:
                process.terminate()
            process.wait(timeout=30)

    def _submit(self, port_file, *extra):
        from repro.__main__ import main
        params = json.dumps(TPCH_PARAMS)
        return main(["submit", "--port-file", str(port_file),
                     "--workload", "tpch", "--params", params,
                     "--configs", "4f-0s,2f-2s/8", "--runs", "1",
                     *extra])

    def test_cold_warm_stats_shutdown(self, served, tmp_path,
                                      capsys):
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        assert self._submit(served, "--json-out",
                            str(cold_json)) == 0
        # A cold submission is not fully cached: exit code 3.
        capsys.readouterr()
        assert self._submit(served, "--json-out", str(warm_json),
                            "--assert-cached") == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out
        assert cold_json.read_bytes() == warm_json.read_bytes()
        from repro.__main__ import main
        assert main(["submit", "--port-file", str(served),
                     "--stats"]) == 0
        stats_out = capsys.readouterr().out
        assert "service.cache.hits" in stats_out
        assert main(["submit", "--port-file", str(served),
                     "--shutdown"]) == 0

    def test_assert_cached_fails_cold(self, served, capsys):
        assert self._submit(served, "--assert-cached") == 3
        assert "ASSERTION FAILED" in capsys.readouterr().err

    def test_malformed_sweep_reports_error_without_traceback(
            self, served, tmp_path, capsys):
        """A server error is a one-line message and exit status 1,
        and no output file is written."""
        from repro.__main__ import main
        json_out = tmp_path / "results.json"
        trace_out = tmp_path / "trace.json"
        assert main(["submit", "--port-file", str(served),
                     "--workload", "specjbb",
                     "--params", json.dumps({"vm": "jrockt"}),
                     "--configs", "4f-0s", "--runs", "1",
                     "--json-out", str(json_out),
                     "--trace-out", str(trace_out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid: parameter 'vm'")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not json_out.exists() and not trace_out.exists()

    def test_unreachable_server_reports_error_without_traceback(
            self, tmp_path, capsys):
        """A port with no listener is a one-line message and exit
        status 1, and no output file is written."""
        from repro.__main__ import main
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        json_out = tmp_path / "results.json"
        trace_out = tmp_path / "trace.json"
        assert main(["submit", "--port", str(port),
                     "--connect-timeout", "0.5", "--workload", "tpch",
                     "--json-out", str(json_out),
                     "--trace-out", str(trace_out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: cannot reach server at 127.0.0.1:{port}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not json_out.exists() and not trace_out.exists()

    def test_repeated_config_keeps_both_copies(self, served, tmp_path,
                                               capsys):
        """``submit`` rebuilds its sweep the way ``report
        --stock-results`` does, so a config listed twice contributes
        both of its results to the table and to the trace."""
        from repro.__main__ import main
        traces = {}
        for configs in ("4f-0s", "4f-0s,4f-0s"):
            trace = tmp_path / f"{configs.count(',')}.trace.json"
            assert main(["submit", "--port-file", str(served),
                         "--workload", "tpch",
                         "--params", json.dumps(TPCH_PARAMS),
                         "--configs", configs, "--runs", "1",
                         "--trace-out", str(trace)]) == 0
            rows = [line.split() for line
                    in capsys.readouterr().out.splitlines()
                    if line.startswith("4f-0s")]
            assert [row[-1] for row in rows] == \
                [str(configs.count(",") + 1)]
            traces[configs] = json.loads(trace.read_text())
        runs = {configs: [(run["pid"], run["config"], run["seed"])
                          for run in trace["otherData"]["runs"]]
                for configs, trace in traces.items()}
        assert runs == {"4f-0s": [(0, "4f-0s", 100)],
                        "4f-0s,4f-0s": [(0, "4f-0s", 100),
                                        (1, "4f-0s", 100)]}
        assert len(traces["4f-0s,4f-0s"]["traceEvents"]) == \
            2 * len(traces["4f-0s"]["traceEvents"])
