"""Blocking client for the scenario service.

A thin synchronous wrapper over the NDJSON protocol — one socket, one
request at a time, responses matched in order (the server answers a
connection's requests sequentially).  Suitable for the CLI, CI and
tests; an async client is one ``asyncio.open_connection`` away, the
wire format is the contract.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.service.cache import result_from_payload
from repro.workloads.base import RunResult


class ServiceError(ReproError):
    """The server answered with a structured error response."""

    def __init__(self, response: Dict[str, Any]) -> None:
        error = response.get("error", "unknown")
        messages = response.get("messages", [])
        super().__init__(f"{error}: " + "; ".join(messages))
        self.error = error
        self.messages = list(messages)
        self.response = response


class SweepResponse:
    """A ``result`` response with convenience accessors."""

    def __init__(self, response: Dict[str, Any]) -> None:
        self.response = response
        self.tasks: int = response.get("tasks", 0)
        self.cache_hits: int = response.get("cache_hits", 0)
        self.coalesced: int = response.get("coalesced", 0)
        self.simulations_run: int = response.get(
            "simulations_run", 0)
        #: Raw result payloads in deterministic task order.
        self.payloads: List[Dict[str, Any]] = response.get(
            "results", [])

    def results(self) -> List[RunResult]:
        """Reconstructed :class:`RunResult` objects, in task order."""
        return [result_from_payload(payload)
                for payload in self.payloads]

    @property
    def fully_cached(self) -> bool:
        """True when the request simulated nothing at all."""
        return self.simulations_run == 0


class ServiceClient:
    """Talk to a running :class:`~repro.service.server.ScenarioServer`.

    Use as a context manager; the connection is opened lazily on the
    first request.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: Optional[float] = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0

    # ------------------------------------------------------------------
    def connect(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message, return its response."""
        self.connect()
        assert self._file is not None
        self._next_id += 1
        message = dict(message, id=self._next_id)
        self._file.write((json.dumps(message) + "\n").encode("utf-8"))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if response.get("type") == "error":
            raise ServiceError(response)
        return response

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def sweep(self, workload: str, configs: List[str],
              runs: int = 1, base_seed: int = 100,
              params: Optional[Dict[str, Any]] = None,
              **options: Any) -> SweepResponse:
        """Run a config sweep; results come back in task order."""
        message = {"type": "sweep", "workload": workload,
                   "configs": list(configs), "runs": runs,
                   "base_seed": base_seed, "params": params or {}}
        message.update(options)
        return SweepResponse(self.request(message))

    def stats(self) -> Dict[str, Any]:
        return self.request({"type": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and stop; returns its ack."""
        return self.request({"type": "shutdown", "drain": True})
