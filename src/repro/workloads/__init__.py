"""Behavioural models of the paper's eight workloads.

Every model implements :class:`~repro.workloads.base.Workload` and can
be run on any machine configuration with any kernel scheduler:

* :class:`~repro.workloads.specjbb.SpecJBB` (§3.1)
* :class:`~repro.workloads.jappserver.SpecJAppServer` (§3.2)
* :class:`~repro.workloads.tpch.TpchPowerRun` / ``TpchQuery`` (§3.3)
* :class:`~repro.workloads.webserver.ApacheWorkload` / ``ZeusWorkload``
  (§3.4)
* :class:`~repro.workloads.specomp.SpecOmpBenchmark` (§3.5)
* :class:`~repro.workloads.h264.H264Encoder` (§3.6)
* :class:`~repro.workloads.pmake.Pmake` (§3.7)

plus :class:`~repro.workloads.lockstress.LockStress`, the
lock-contention microbenchmark behind fig12 (DESIGN.md §11).
"""

from repro.workloads.base import RunResult, SchedulerFactory, Workload
from repro.workloads.h264 import H264Encoder
from repro.workloads.jappserver import SpecJAppServer
from repro.workloads.lockstress import LockStress
from repro.workloads.pmake import Pmake
from repro.workloads.specjbb import SpecJBB
from repro.workloads.specomp import SpecOmpBenchmark
from repro.workloads.tpch import TpchPowerRun, TpchQuery
from repro.workloads.webserver import ApacheWorkload, ZeusWorkload

__all__ = [
    "Workload",
    "RunResult",
    "SchedulerFactory",
    "SpecJBB",
    "SpecJAppServer",
    "TpchPowerRun",
    "TpchQuery",
    "ApacheWorkload",
    "ZeusWorkload",
    "SpecOmpBenchmark",
    "H264Encoder",
    "Pmake",
    "LockStress",
]
