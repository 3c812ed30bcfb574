"""SPECjAppServer2002 model (paper §3.2).

A three-tier J2EE benchmark: a driver machine injects order requests at
a specified **injection rate** into the middle-tier application server
(the system under test); a backend database completes the picture.
The paper studies the middle tier's interaction with asymmetry.

Two business domains are modelled (of the benchmark's four):

* **customer / NewOrder** — order entry transactions;
* **manufacturing** — production scheduling work orders triggered by
  orders.

The benchmark's defining feature for this paper is its **feedback
loop**: "If the jAppServer cannot respond within a fixed time, the
driver is informed, and the injection rate of requests is scaled
down."  The workload adapts to the capacity it observes — which is why
it is the one commercial server in the study that stays predictable on
asymmetric machines: "SPECjAppServer adapts to dynamic performance
variability by automatically scaling back and performing load
balancing" (§3.2.2).

The app server itself is a work-conserving thread pool (the J2EE
container's execute queue), so no run-level placement persistence can
build up.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro._system import System
from repro.runtime.threadpool import Task, ThreadPool
from repro.workloads.base import Workload


class SpecJAppServer(Workload):
    """SPECjAppServer2002 behavioural model.

    Parameters
    ----------
    injection_rate:
        Orders per second the driver tries to inject.
    """

    name = "SPECjAppServer"
    primary_metric = "throughput"
    higher_is_better = True
    #: Container execute-queue threads.
    pool_threads = 16
    #: Middle-tier CPU per transaction of each domain.
    customer_cycles = 11.2e6
    manufacturing_cycles = 19.6e6
    #: Blocking wait per transaction for the backend database tier (a
    #: separate, never-bottlenecked machine in the paper's setup).
    db_roundtrip = 0.004
    #: Response-time bound; sustained violations make the driver scale
    #: the injection rate down (the SPEC feedback rule).
    response_limit = 0.25
    control_interval = 0.2

    def __init__(self, injection_rate: float = 320.0,
                 measurement_seconds: float = 3.0,
                 warmup_seconds: float = 2.0) -> None:
        self.injection_rate = injection_rate
        self.measurement_seconds = measurement_seconds
        self.warmup_seconds = warmup_seconds

    # ------------------------------------------------------------------
    def simulate(self, system: System) -> Dict[str, float]:
        pool = ThreadPool(system, self.pool_threads, name="jas")
        rng = system.sim.stream("jas.driver")
        state = _DriverState(self.injection_rate, self.response_limit)
        end = self.warmup_seconds + self.measurement_seconds

        def on_customer_done(task: Task, at: float) -> None:
            response = task.response_time
            state.note_response(response)
            if at >= self.warmup_seconds and at <= end:
                state.customer_done += 1
                state.customer_responses.append(response)
            # Each accepted order triggers a manufacturing work order.
            pool.submit(Task(self.manufacturing_cycles,
                             io_before=self.db_roundtrip,
                             on_done=on_manufacturing_done))

        def on_manufacturing_done(task: Task, at: float) -> None:
            response = task.response_time
            state.note_response(response)
            if at >= self.warmup_seconds and at <= end:
                state.manufacturing_done += 1
                state.manufacturing_responses.append(response)

        def inject() -> None:
            if system.now >= end:
                return
            pool.submit(Task(self.customer_cycles,
                             io_before=self.db_roundtrip,
                             on_done=on_customer_done))
            state.injected += 1
            gap = rng.jitter(1.0 / state.rate, 0.1)
            system.sim.schedule_fast(gap, inject)

        def control() -> None:
            if system.now >= end:
                return
            # The SPEC feedback rule: slow responses scale the driver
            # down; headroom lets it creep back toward the target.
            if state.window_violations():
                state.rate = max(state.rate * 0.92, 1.0)
            else:
                state.rate = min(state.rate * 1.08,
                                 self.injection_rate)
            state.reset_window()
            system.sim.schedule_fast(self.control_interval, control)

        system.sim.schedule_fast(0.0, inject)
        system.sim.schedule_fast(self.control_interval, control)
        system.run(until=end)

        manufacturing = sorted(state.manufacturing_responses)
        metrics = {
            "throughput": state.manufacturing_done
            / self.measurement_seconds,
            "neworder_throughput": state.customer_done
            / self.measurement_seconds,
            "final_injection_rate": state.rate,
        }
        if manufacturing:
            metrics["mean_response"] = \
                sum(manufacturing) / len(manufacturing)
            metrics["p90_response"] = \
                manufacturing[int(0.9 * (len(manufacturing) - 1))]
            metrics["max_response"] = manufacturing[-1]
        return metrics


class _DriverState:
    """Mutable driver bookkeeping shared by the event callbacks."""

    def __init__(self, rate: float, limit: float) -> None:
        self.rate = rate
        self.injected = 0
        self.customer_done = 0
        self.manufacturing_done = 0
        self.customer_responses: List[float] = []
        self.manufacturing_responses: List[float] = []
        self._window_slow = 0
        self._window_total = 0
        self._limit = limit

    def note_response(self, response: Optional[float]) -> None:
        if response is None:
            return
        self._window_total += 1
        if response > self._limit:
            self._window_slow += 1

    def window_violations(self) -> bool:
        """More than 20% of the window's responses were too slow?"""
        if self._window_total == 0:
            return False
        return self._window_slow > 0.2 * self._window_total

    def reset_window(self) -> None:
        self._window_slow = 0
        self._window_total = 0
