r"""The asyncio scenario server: simulation-as-a-service.

One long-running process owns a warm
:class:`~repro.experiments.parallel.ProcessPoolBackend` and a
:class:`~repro.service.cache.ResultCache`; clients connect over
TCP and exchange newline-delimited JSON
(:mod:`repro.service.protocol`).  Per request the server:

1. validates the scenario and expands it to the deterministic task
   order a local :class:`~repro.experiments.runner.Runner` would use;
2. fingerprints every task and serves known results from the cache;
3. coalesces duplicates of *in-flight* tasks onto the first
   requester's pending future (a second client submitting the same
   scenario while it simulates waits for the one execution instead of
   triggering another);
4. admits the remaining fresh work against a bounded queue
   (``max_pending_tasks``) — over the bound the request is rejected
   with a structured ``overloaded`` error instead of queueing without
   limit — and batches it onto the warm pool, at most
   ``max_inflight`` batches simulating concurrently;
5. stores fresh results in the cache, resolves duplicate waiters,
   and answers with results reassembled in task order.

Backpressure state machine (DESIGN.md §12)::

    accepting --shutdown(drain)--> draining --batches done--> closed
        \--request over bound--> reject "overloaded" (stay accepting)
    draining: new scenario requests reject "shutting_down";
              stats/ping still answered; in-flight batches finish.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.histogram import LatencyHistogram
from repro.metrics import CounterBag
from repro.experiments.parallel import (
    ProcessPoolBackend,
    RunTask,
    WorkerCrashError,
    task_fingerprint,
)
from repro.service import protocol
from repro.service.cache import ResultCache, result_text
from repro.service.ledger import RunLedger, request_digest

log = logging.getLogger("repro.service")

#: Per-connection line limit: requests are small, but responses carry
#: traces; the read limit only bounds *incoming* lines.
_READ_LIMIT = 4 * 1024 * 1024


class ScenarioServer:
    """Async scenario server over the experiment machinery.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    cache:
        Result cache; anything with the
        :class:`~repro.service.cache.ResultCache` payload text API
        (``lookup_text`` / ``store_text``).  ``None`` disables
        caching.
    executor:
        Simulation executor with a blocking ``run_tasks(tasks)``
        method; default is a warm :class:`ProcessPoolBackend` with
        one worker per CPU.  Tests inject stubs here.
    max_inflight:
        Batches simulating concurrently; admitted batches over this
        wait their turn (still counted as pending).
    max_pending_tasks:
        Bound on admitted-but-unfinished fresh tasks across all
        requests — the service's backpressure valve.
    ledger_path:
        Optional path of a :class:`~repro.service.ledger.RunLedger`
        receiving exactly one JSONL record per request.  The ledger
        is outside the byte-identity surface, like tracing; the
        per-request queue-wait/execute latency histograms in
        :attr:`latency` are maintained either way.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache: Optional[ResultCache] = None,
                 executor: Optional[Any] = None,
                 max_inflight: int = 4,
                 max_pending_tasks: int = 256,
                 ledger_path: Optional[str] = None) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_pending_tasks < 1:
            raise ValueError("max_pending_tasks must be >= 1")
        self.host = host
        self.port = port
        self.cache = cache
        self.executor = executor if executor is not None \
            else ProcessPoolBackend()
        self.max_inflight = max_inflight
        self.max_pending_tasks = max_pending_tasks
        self.ledger = (RunLedger(ledger_path)
                       if ledger_path is not None else None)
        #: Always-on per-request service latency distributions
        #: (ledger-independent, surfaced by ``stats``).
        self.latency: Dict[str, LatencyHistogram] = {
            "queue_wait_seconds": LatencyHistogram(),
            "execute_seconds": LatencyHistogram(),
        }
        self.counters = CounterBag()
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._threads = ThreadPoolExecutor(
            max_workers=max_inflight,
            thread_name_prefix="repro-service")
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending_tasks = 0
        self._batch_gate: Optional[asyncio.Semaphore] = None
        self._batches: Set[asyncio.Task] = set()
        self._connections: Set[asyncio.Task] = set()
        self._stopped: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._batch_gate = asyncio.Semaphore(self.max_inflight)
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_READ_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        log.info("serving on %s:%d (max_inflight=%d, "
                 "max_pending_tasks=%d, cache=%s)",
                 self.host, self.port, self.max_inflight,
                 self.max_pending_tasks,
                 getattr(self.cache, "directory", None) or "disabled")

    async def serve_forever(self) -> None:
        """Run until a drain completes (shutdown request or signal)."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        if self.draining:
            return
        self.draining = True
        log.info("drain requested: %d batch(es) in flight, "
                 "%d pending task(s)", len(self._batches),
                 self._pending_tasks)
        asyncio.ensure_future(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        while self._batches:
            await asyncio.gather(*list(self._batches),
                                 return_exceptions=True)
        await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting, stop the pool, release the loop."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for connection in list(self._connections):
            connection.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        self._threads.shutdown(wait=False)
        shutdown = getattr(self.executor, "shutdown", None)
        if shutdown is not None:
            shutdown()
        if self.ledger is not None:
            self.ledger.close()
        if self._stopped is not None:
            self._stopped.set()
        log.info("server closed")

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        self.counters.incr("service.connections")
        self._connections.add(asyncio.current_task())
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(protocol.encode(
                        protocol.error_response(
                            None, "invalid",
                            ["request line too long"])))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._dispatch(line)
                writer.write(protocol.encode(response))
                await writer.drain()
                if response.get("type") == "shutdown":
                    self.request_shutdown()
        except (ConnectionError, asyncio.CancelledError):
            # Cancellation means the server is closing; finish the
            # connection's cleanup instead of propagating noise into
            # the stream machinery's done-callbacks.
            pass
        finally:
            self._connections.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
            log.debug("connection from %s closed", peer)

    def _record_request(self, entry: Dict[str, Any]) -> None:
        """Account one request in the ledger (exactly once each)."""
        if self.ledger is not None:
            self.counters.incr("service.ledger.records")
            self.ledger.record(entry)

    async def _dispatch(self, line: bytes) -> Dict[str, Any]:
        """One request line -> its response."""
        self.counters.incr("service.requests")
        try:
            message = protocol.decode_line(line)
        except protocol.ProtocolError as exc:
            self.counters.incr("service.rejected.invalid")
            self._record_request({"request": "invalid",
                                  "outcome": "invalid"})
            return protocol.error_response(
                None, "invalid", exc.messages)
        kind = message["type"]
        request_id = message.get("id")
        if kind == "ping":
            self._record_request({"request": "ping", "outcome": "ok"})
            return {"type": "pong", "id": request_id}
        if kind == "stats":
            self._record_request({"request": "stats", "outcome": "ok"})
            return self._stats_response(request_id)
        if kind == "shutdown":
            self._record_request({"request": "shutdown",
                                  "outcome": "ok"})
            return {"type": "shutdown", "id": request_id,
                    "draining": self._pending_tasks}
        return await self._handle_scenario(message)

    # ------------------------------------------------------------------
    # Scenario execution
    # ------------------------------------------------------------------
    async def _handle_scenario(
            self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one scenario request and ledger it exactly once."""
        entry: Dict[str, Any] = {"request": "sweep"}
        try:
            response = await self._scenario_response(message, entry)
        except BaseException:
            entry["outcome"] = "internal"
            self._record_request(entry)
            raise
        entry["outcome"] = (response["error"]
                            if response.get("type") == "error"
                            else "ok")
        self._record_request(entry)
        return response

    async def _scenario_response(
            self, message: Dict[str, Any],
            entry: Dict[str, Any]) -> Dict[str, Any]:
        request_id = message.get("id")
        try:
            request = protocol.parse_scenario(message)
        except protocol.ProtocolError as exc:
            self.counters.incr("service.rejected.invalid")
            log.warning("invalid sweep request: %s",
                        "; ".join(exc.messages))
            return protocol.error_response(
                request_id, "invalid", exc.messages)
        if self.draining:
            self.counters.incr("service.rejected.shutting_down")
            return protocol.error_response(
                request_id, "shutting_down",
                ["server is draining; resubmit elsewhere"])
        self.counters.incr("service.sweeps")

        entry["workload"] = request.workload_name
        entry["scheduler"] = request.scheduler

        # Classify every task without awaiting (the scan is atomic on
        # the event loop): cache hit, duplicate of in-flight work, or
        # fresh.  ``order`` drives response reassembly in task order.
        order: List[Tuple[str, Any]] = []
        fresh: Dict[str, Any] = {}
        keys: List[str] = []
        cache_hits = 0
        coalesced = 0
        for task in request.tasks:
            key = task_fingerprint(task)
            keys.append(key)
            text = (self.cache.lookup_text(key)
                    if self.cache is not None else None)
            if text is not None:
                cache_hits += 1
                order.append(("text", text))
                continue
            future = self._inflight.get(key)
            if future is not None:
                coalesced += 1
                self.counters.incr("service.inflight_coalesced")
                order.append(("future", future))
                continue
            if key in fresh:
                # Duplicate within one request (e.g. the same config
                # listed twice): simulate once, reuse the text.
                coalesced += 1
                self.counters.incr("service.inflight_coalesced")
                order.append(("key", key))
                continue
            fresh[key] = task
            order.append(("key", key))
        entry["fingerprint"] = request_digest(keys)
        entry["tasks"] = len(order)
        entry["cache_hits"] = cache_hits
        entry["coalesced"] = coalesced
        entry["fresh"] = len(fresh)

        # Admission control: the bounded queue counts fresh tasks
        # admitted but not yet finished, across all requests.
        if self._pending_tasks + len(fresh) > self.max_pending_tasks:
            self.counters.incr("service.rejected.overloaded")
            log.warning(
                "overloaded: %d fresh task(s) would exceed the "
                "pending bound (%d/%d)", len(fresh),
                self._pending_tasks, self.max_pending_tasks)
            return protocol.error_response(
                request_id, "overloaded",
                [f"{len(fresh)} fresh task(s) would exceed the "
                 f"pending bound ({self._pending_tasks} pending, "
                 f"max {self.max_pending_tasks}); retry later"],
                pending_tasks=self._pending_tasks,
                max_pending_tasks=self.max_pending_tasks)

        texts: Dict[str, str] = {}
        if fresh:
            loop = asyncio.get_running_loop()
            for key in fresh:
                self._inflight[key] = loop.create_future()
            self._pending_tasks += len(fresh)
            batch = asyncio.ensure_future(
                self._run_batch(dict(fresh), entry))
            self._batches.add(batch)
            batch.add_done_callback(self._batches.discard)
            try:
                texts = await batch
            except WorkerCrashError as exc:
                self.counters.incr("service.worker_crashes")
                log.error("worker crash serving %s: %s",
                          request.workload_name, exc)
                return protocol.error_response(
                    request_id, "worker_crashed", [str(exc)],
                    tasks=len(exc.tasks))
            except Exception as exc:  # noqa: BLE001 - simulation bug
                self.counters.incr("service.internal_errors")
                log.exception("internal error serving %s",
                              request.workload_name)
                return protocol.error_response(
                    request_id, "internal",
                    [f"{type(exc).__name__}: {exc}"])

        # Payload texts, spliced into the response line unparsed
        # (protocol.encode).
        results: List[str] = []
        try:
            for source, value in order:
                if source == "text":
                    results.append(value)
                elif source == "key":
                    results.append(texts[value])
                else:
                    results.append(await value)
        except WorkerCrashError as exc:
            # A duplicate of another request's batch, and that batch's
            # worker died: surface the same structured error.
            self.counters.incr("service.worker_crashes")
            return protocol.error_response(
                request_id, "worker_crashed", [str(exc)],
                tasks=len(exc.tasks))
        except Exception as exc:  # noqa: BLE001
            self.counters.incr("service.internal_errors")
            return protocol.error_response(
                request_id, "internal",
                [f"{type(exc).__name__}: {exc}"])
        log.info("sweep %s: %d task(s), %d cache hit(s), %d coalesced, "
                 "%d simulated", request.workload_name, len(order),
                 cache_hits, coalesced, len(fresh))
        return {
            "type": "result", "id": request_id,
            "workload": request.workload_name,
            "tasks": len(order),
            "cache_hits": cache_hits,
            "coalesced": coalesced,
            "simulations_run": len(fresh),
            "results": results,
        }

    def _note_batch(self, entry: Optional[Dict[str, Any]], name: str,
                    value: float) -> None:
        """Record one batch latency (and the pool's worker count)."""
        if entry is None:
            return
        entry[name] = value
        jobs = getattr(self.executor, "jobs", None)
        if jobs is not None:
            entry["jobs"] = jobs

    async def _run_batch(self, fresh: Dict[str, RunTask],
                         entry: Optional[Dict[str, Any]] = None,
                         ) -> Dict[str, str]:
        """Execute one request's fresh tasks on the warm pool.

        Runs in its own asyncio task so a graceful drain can await
        every in-flight batch.  Each fresh result is serialized once
        (:func:`~repro.service.cache.result_text`); that text is both
        stored and answered.  Resolves the registered in-flight
        futures — with texts on success, with the error on failure
        — and always releases the pending-task budget.  Queue-wait
        (admission to batch-gate acquisition) and execute (pool wall
        time) land in :attr:`latency` and, when given, in the
        request's ledger ``entry``.
        """
        assert self._batch_gate is not None
        keys = list(fresh)
        tasks = [fresh[key] for key in keys]
        loop = asyncio.get_running_loop()
        admitted = time.monotonic()
        try:
            async with self._batch_gate:
                queue_wait = time.monotonic() - admitted
                self.latency["queue_wait_seconds"].add(queue_wait)
                self._note_batch(entry, "queue_wait_seconds", queue_wait)
                started = time.monotonic()
                results = await loop.run_in_executor(
                    self._threads, self.executor.run_tasks, tasks)
                executed = time.monotonic() - started
                self.latency["execute_seconds"].add(executed)
                self._note_batch(entry, "execute_seconds", executed)
            texts: Dict[str, str] = {}
            for key, result in zip(keys, results):
                text = result_text(result)
                texts[key] = text
                if self.cache is not None:
                    self.cache.store_text(key, text)
            self.counters.incr("service.simulations_run",
                               len(results))
            for key in keys:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_result(texts[key])
            return texts
        except BaseException as exc:
            for key in keys:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(exc)
                    # Nobody may be waiting; don't warn about it.
                    future.exception()
            raise
        finally:
            self._pending_tasks -= len(keys)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _stats_response(self, request_id: Any) -> Dict[str, Any]:
        counters = dict(self.counters.as_dict())
        if self.cache is not None:
            counters.update(self.cache.counters.as_dict())
        executor_counters = getattr(self.executor, "counters", None)
        if executor_counters is not None:
            counters.update(executor_counters.as_dict())
        cache_stats = getattr(self.cache, "stats", None)
        return {
            "type": "stats", "id": request_id,
            "counters": counters,
            "pending_tasks": self._pending_tasks,
            "inflight_keys": len(self._inflight),
            "draining": self.draining,
            "cache_entries": (len(self.cache)
                              if self.cache is not None else 0),
            "cache": (cache_stats() if cache_stats is not None
                      else None),
            "latency": {name: histogram.as_dict()
                        for name, histogram in self.latency.items()},
            "ledger": {
                "path": (self.ledger.path
                         if self.ledger is not None else None),
                "records": int(
                    self.counters.get("service.ledger.records")),
            },
        }
