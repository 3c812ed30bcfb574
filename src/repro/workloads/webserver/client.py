"""ApacheBench-style closed-loop HTTP client (paper §3.4).

The paper drives both web servers with ApacheBench fetching a single
static file, in two modes:

* **heavy load** — 60 concurrent requests ("full utilization");
* **light load** — 10 concurrent requests.

We model a closed loop: each of ``concurrency`` connection slots has at
most one request outstanding; when a response arrives the slot waits a
client-side network delay and issues the next request.  Throughput is
completed requests per second over a steady-state window.
"""

from __future__ import annotations

from typing import List, Optional

from repro._system import System


class Request:
    """One HTTP request travelling through a server model."""

    __slots__ = ("slot_id", "issue_time", "start_time", "finish_time",
                 "on_done")

    def __init__(self, slot_id: int, issue_time: float, on_done) -> None:
        self.slot_id = slot_id
        self.issue_time = issue_time
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.on_done = on_done

    @property
    def response_time(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.issue_time


#: Paper §3.4 load levels: (concurrency, label).
LIGHT_LOAD_CONCURRENCY = 10
HEAVY_LOAD_CONCURRENCY = 60


class ClosedLoopClient:
    """Fixed-concurrency request generator with steady-state metering.

    Parameters
    ----------
    system:
        Platform shared with the server under test.
    server:
        Object with a ``submit(request)`` method.
    concurrency:
        Number of connection slots (10 = light, 60 = heavy).
    network_delay:
        Client-side think/network time between a response and the next
        request on the same slot.
    """

    #: Name of the random stream the client's jitter draws from.
    rng_stream = "http.client"

    def __init__(self, system: System, server, concurrency: int,
                 network_delay: float = 0.002) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.system = system
        self.server = server
        self.concurrency = concurrency
        self.network_delay = network_delay
        self.rng = system.sim.stream(self.rng_stream)
        self.completed = 0
        self._measuring = False
        self.measured_count = 0
        self.response_times: List[float] = []
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open all connection slots (staggered by network jitter)."""
        for slot in range(self.concurrency):
            delay = self.rng.uniform(0.0, self.network_delay)
            self.system.sim.schedule_fast(delay, self._issue, slot)

    def measure(self, warmup: float, duration: float) -> None:
        """Arrange metering of [warmup, warmup + duration]."""
        self.system.sim.schedule_fast(warmup, self._begin_measurement)
        self.system.sim.schedule_fast(warmup + duration,
                                      self._end_measurement)

    def _begin_measurement(self) -> None:
        self._measuring = True

    def _end_measurement(self) -> None:
        self._measuring = False
        self._stopped = True

    # ------------------------------------------------------------------
    def _issue(self, slot: int) -> None:
        if self._stopped:
            return
        request = Request(slot, self.system.now, self._on_response)
        self.server.submit(request)

    def _on_response(self, request: Request) -> None:
        self.completed += 1
        if self._measuring:
            self.measured_count += 1
            self.response_times.append(request.response_time)
        delay = self.rng.jitter(self.network_delay, 0.2)
        self.system.sim.schedule_fast(delay, self._issue, request.slot_id)

    # ------------------------------------------------------------------
    def throughput(self, duration: float) -> float:
        """Measured requests/second over the metering window."""
        return self.measured_count / duration
