"""Workload wrappers running the web servers under the HTTP client."""

from __future__ import annotations

from typing import Dict

from repro._system import System
from repro.workloads.base import Workload
from repro.workloads.webserver.apache import (
    DEFAULT_RECYCLE_AFTER,
    FINE_GRAINED_RECYCLE_AFTER,
    ApacheServer,
)
from repro.workloads.webserver.client import (
    HEAVY_LOAD_CONCURRENCY,
    LIGHT_LOAD_CONCURRENCY,
    ClosedLoopClient,
)
from repro.workloads.webserver.zeus import ZeusServer

_LOAD_LEVELS = {
    "light": LIGHT_LOAD_CONCURRENCY,
    "heavy": HEAVY_LOAD_CONCURRENCY,
}


class _WebWorkload(Workload):
    """Shared driver: build server, run the closed-loop client."""

    primary_metric = "throughput"
    higher_is_better = True
    #: Client think time between a response and the slot's next request.
    network_delay = 0.0045

    def __init__(self, load: str = "light",
                 measurement_seconds: float = 2.0,
                 warmup_seconds: float = 0.3) -> None:
        if load not in _LOAD_LEVELS:
            raise ValueError(f"load must be one of {sorted(_LOAD_LEVELS)}")
        self.load = load
        self.concurrency = _LOAD_LEVELS[load]
        self.measurement_seconds = measurement_seconds
        self.warmup_seconds = warmup_seconds

    def _build_server(self, system):
        raise NotImplementedError

    def simulate(self, system: System) -> Dict[str, float]:
        server = self._build_server(system)
        client = ClosedLoopClient(system, server, self.concurrency,
                                  network_delay=self.network_delay)
        client.start()
        client.measure(self.warmup_seconds, self.measurement_seconds)
        system.run(until=self.warmup_seconds + self.measurement_seconds)
        metrics = {
            "throughput": client.throughput(self.measurement_seconds),
            "requests": float(client.measured_count),
        }
        if client.response_times:
            times = sorted(client.response_times)
            metrics["mean_response"] = sum(times) / len(times)
            metrics["p90_response"] = times[int(0.9 * (len(times) - 1))]
            metrics["max_response"] = times[-1]
        self._extra_metrics(server, metrics)
        return metrics

    def _extra_metrics(self, server, metrics) -> None:
        """Subclass hook for server-specific metrics."""


class ApacheWorkload(_WebWorkload):
    """Apache under ApacheBench (paper Figure 6).

    ``fine_grained=True`` is the paper's §3.4.2 experiment: recycle
    each worker after 50 requests instead of 5000.
    """

    name = "Apache"
    #: Pre-forked pool size (``ApacheServer`` itself defaults to 12).
    n_workers = 16

    def __init__(self, load: str = "light", fine_grained: bool = False,
                 **kwargs) -> None:
        super().__init__(load, **kwargs)
        self.fine_grained = fine_grained

    def _build_server(self, system):
        recycle = (FINE_GRAINED_RECYCLE_AFTER if self.fine_grained
                   else DEFAULT_RECYCLE_AFTER)
        return ApacheServer(system, n_workers=self.n_workers,
                            recycle_after=recycle)

    def _extra_metrics(self, server, metrics) -> None:
        metrics["forks"] = float(server.forks)


class ZeusWorkload(_WebWorkload):
    """Zeus under ApacheBench (paper Figure 7)."""

    name = "Zeus"

    def _build_server(self, system):
        return ZeusServer(system)
