"""TPC-H workload drivers: power run and single-query runs (§3.3)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro._system import System
from repro.kernel.thread import SimThread
from repro.workloads.base import Workload
from repro.workloads.tpch.engine import DatabaseServer
from repro.workloads.tpch.queries import (
    MAX_OPT_DEGREE,
    all_queries,
    build_plan,
)


class TpchPowerRun(Workload):
    """The TPC-H power run: all 22 queries in series, single user.

    Figure 4(a) uses parallelization degree 4 and optimization degree
    7; Figure 5 varies them (8/7 and 4/2).
    """

    name = "TPC-H"
    primary_metric = "runtime"
    higher_is_better = False

    def __init__(self, parallel_degree: int = 4,
                 optimization_degree: int = MAX_OPT_DEGREE,
                 queries: Optional[List[int]] = None,
                 lock_kind: str = "fifo",
                 latch_cycles: float = 25e3) -> None:
        self.parallel_degree = parallel_degree
        self.optimization_degree = optimization_degree
        self.queries = list(queries) if queries is not None \
            else all_queries()
        self.lock_kind = lock_kind
        self.latch_cycles = latch_cycles

    # ------------------------------------------------------------------
    def simulate(self, system: System) -> Dict[str, float]:
        server = DatabaseServer(system, lock_kind=self.lock_kind,
                                latch_cycles=self.latch_cycles)
        query_times: Dict[int, float] = {}

        def power_run():
            frequency = system.machine.frequency_hz
            for query in self.queries:
                plan = build_plan(query, self.parallel_degree,
                                  self.optimization_degree,
                                  frequency_hz=frequency)
                started = system.now
                yield from server.run_query(plan)
                query_times[query] = system.now - started

        system.kernel.spawn(SimThread("tpch-power-run", power_run()))
        system.run()
        metrics = {"runtime": system.now}
        for query, elapsed in query_times.items():
            metrics[f"q{query}_runtime"] = elapsed
        return metrics


class TpchQuery(Workload):
    """A single TPC-H query run repeatedly (Figure 4(b) uses Q3)."""

    name = "TPC-H-query"
    primary_metric = "runtime"
    higher_is_better = False

    def __init__(self, query: int = 3, parallel_degree: int = 4,
                 optimization_degree: int = MAX_OPT_DEGREE) -> None:
        self._power = TpchPowerRun(parallel_degree, optimization_degree,
                                   queries=[query])
        self.query = query

    def simulate(self, system: System) -> Dict[str, float]:
        return {"runtime": self._power.simulate(system)["runtime"]}
