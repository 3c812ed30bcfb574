"""Scenario-service throughput: warm cache versus cold pool.

Runs a real :class:`~repro.service.server.ScenarioServer` (warm
process pool + disk cache) in a background thread and measures, over
one TCP connection, what a sweep costs end to end:

* **cold** — empty cache, every task simulated on the pool;
* **warm** — identical resubmission, answered entirely from the
  persistent cache (``simulations_run == 0`` is pinned, not just the
  speedup).

Raw tasks/sec is host-dependent; the warm/cold ratio within one run
is not, so that ratio is what the test gates.
"""

import asyncio
import json
import os
import threading
import time

from repro.experiments.parallel import ProcessPoolBackend
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.server import ScenarioServer

#: fig01-sized sweep: every standard configuration, two seeds each —
#: the same shape CI's identity job submits through the CLI.
SWEEP = {
    "workload": "tpch",
    "configs": ["4f-0s", "3f-1s/4", "2f-2s/8", "1f-3s/8", "0f-4s/8"],
    "runs": 2,
    "params": {"parallel_degree": 4, "optimization_degree": 7},
}
#: Tasks in :data:`SWEEP`.
SWEEP_TASKS = 10

#: A fully cached resubmission beats the cold pass at least this much.
WARM_SPEEDUP_FLOOR = 3.0


class ServerThread:
    """A ScenarioServer on its own event loop in a daemon thread."""

    def __init__(self, cache_dir):
        self.cache_dir = cache_dir
        self.server = None
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.loop = asyncio.get_running_loop()
        self.server = ScenarioServer(
            host="127.0.0.1", port=0,
            cache=ResultCache(self.cache_dir),
            executor=ProcessPoolBackend(
                jobs=min(4, os.cpu_count() or 1)))
        await self.server.start()
        self._ready.set()
        await self.server.serve_forever()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(60), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=60)

    @property
    def port(self):
        return self.server.port


def test_service_warm_vs_cold_throughput():
    import tempfile

    with tempfile.TemporaryDirectory(
            prefix="repro-bench-cache-") as cache_dir, \
            ServerThread(cache_dir) as served:
        client = ServiceClient(port=served.port, timeout=300)
        with client:
            def submit():
                return client.sweep(**SWEEP)

            # Cold: measured with the cache cleared before each
            # repeat, so every pass simulates the full sweep.
            cold_seconds = float("inf")
            cold = None
            for _ in range(2):
                served.server.cache.clear()
                start = time.perf_counter()
                cold = submit()
                cold_seconds = min(cold_seconds,
                                   time.perf_counter() - start)
            assert cold.tasks == SWEEP_TASKS
            assert cold.simulations_run == cold.tasks

            # Warm: the pinned acceptance criterion — an identical
            # resubmission simulates nothing.
            warm = submit()
            assert warm.simulations_run == 0
            assert warm.cache_hits == warm.tasks
            assert json.dumps(warm.payloads, sort_keys=True) == \
                json.dumps(cold.payloads, sort_keys=True)

            warm_seconds = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                warm = submit()
                warm_seconds = min(warm_seconds,
                                   time.perf_counter() - start)
                assert warm.simulations_run == 0
                assert warm.cache_hits == warm.tasks

    speedup = cold_seconds / warm_seconds
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm sweep {speedup:.1f}x faster than cold, below the "
        f"{WARM_SPEEDUP_FLOOR}x warm-speedup floor")
