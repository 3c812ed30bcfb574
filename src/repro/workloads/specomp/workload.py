"""SPEC OMP workload drivers (paper §3.5, Figure 8)."""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro._system import System
from repro.errors import WorkloadError
from repro.runtime.openmp import LoopSchedule, OmpTeam
from repro.workloads.base import Workload
from repro.workloads.specomp.specs import (
    BENCHMARK_NAMES,
    build_modified_program,
    build_program,
    spec_for,
)

#: The two source variants of Figure 8.
VARIANTS = ("reference", "modified")

#: LoopSchedule values accepted by the ``omp_schedule`` knob, in the
#: order fig13 sweeps them.
OMP_SCHEDULES = tuple(schedule.value for schedule in LoopSchedule)


class SpecOmpBenchmark(Workload):
    """One SPEC OMP benchmark under a pinned OpenMP team.

    ``variant="reference"`` is the unmodified source (Figure 8(a));
    ``variant="modified"`` applies the paper's dynamic-parallelization
    directives (Figure 8(b)).  ``omp_schedule`` overrides every loop's
    schedule directive — the ``OMP_SCHEDULE`` environment knob real
    runtimes expose — which is how fig13 sweeps the performance-
    portable policies of DESIGN.md §14 over unmodified sources.
    """

    name = "SPEC OMP"
    primary_metric = "runtime"
    higher_is_better = False

    def __init__(self, benchmark: str = "swim", variant: str = "reference",
                 pin: bool = True,
                 omp_schedule: Union[str, LoopSchedule, None] = None,
                 omp_chunk: Optional[int] = None) -> None:
        if variant not in VARIANTS:
            raise WorkloadError(f"variant must be one of {VARIANTS}")
        self.spec = spec_for(benchmark)
        self.variant = variant
        self.pin = pin
        if omp_schedule is None:
            self.omp_schedule: Optional[LoopSchedule] = None
        else:
            try:
                self.omp_schedule = LoopSchedule(omp_schedule)
            except ValueError:
                raise WorkloadError(
                    f"omp_schedule must be one of {OMP_SCHEDULES}, "
                    f"got {omp_schedule!r}") from None
        self.omp_chunk = omp_chunk
        self.name = f"OMP-{benchmark}"

    def simulate(self, system: System) -> Dict[str, float]:
        frequency = system.machine.frequency_hz
        if self.variant == "reference":
            program = build_program(self.spec, frequency)
        else:
            program = build_modified_program(self.spec, frequency)
        if self.omp_schedule is not None:
            program = program.with_schedule(self.omp_schedule,
                                            self.omp_chunk)
        team = OmpTeam(system, pin=self.pin)
        elapsed = team.execute(program)
        return {
            "runtime": elapsed,
            "serial_fraction": program.serial_fraction(),
            "chunks": float(sum(team.chunks_taken)),
        }


def suite(variant: str = "reference") -> Dict[str, SpecOmpBenchmark]:
    """All nine benchmarks of Figure 8, in suite order."""
    return {name: SpecOmpBenchmark(name, variant=variant)
            for name in BENCHMARK_NAMES}
