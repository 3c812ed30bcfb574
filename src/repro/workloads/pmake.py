"""PMAKE — parallel compilation of a kernel tree (paper §3.7).

    "The PMAKE application performs a parallel compilation of the
    Linux kernel (~7900 C files).  We run PMAKE with 'make -j4'."

The model: ``make`` keeps up to ``jobs`` compile processes in flight;
each compiles one file (per-file cost drawn deterministically from a
file-indexed distribution, so the tree is identical across runs); a
short serial prologue (dependency scan) and a serial link/archive
epilogue bracket the parallel phase.

Because a fresh process is spawned per file and the next file starts
the moment a slot frees, the job stream is self-balancing: fast cores
compile more files, the machine runs at its aggregate compute power,
and one fast core keeps helping (paper: stable, scalable, asymmetry
helps).  The file count is scaled 1:10 for simulation cost.
"""

from __future__ import annotations

from typing import Dict

from repro._system import System
from repro.kernel.instructions import Acquire, Compute, Release, Spawn
from repro.kernel.sync import Semaphore
from repro.kernel.thread import SimThread
from repro.sim.rng import RandomStream, derive_seed
from repro.workloads.base import Workload


#: Mean per-file compile cost on a fast core.
MEAN_COMPILE_CYCLES = 20e6


def compile_cost_cycles(file_index: int) -> float:
    """Deterministic per-file compile cost (same tree every run)."""
    rng = RandomStream(derive_seed(0x4B49, f"file-{file_index}"))
    # Log-normal-ish: most files small, a few big ones (drivers, core).
    return MEAN_COMPILE_CYCLES * (0.3 + rng.expovariate(1.0 / 0.7))


class Pmake(Workload):
    """Parallel kernel build under ``make -j``.

    Parameters
    ----------
    n_files:
        Compilation units (paper: ~7900; scaled to 790 by default).
    jobs:
        The ``-j`` window (paper uses 4, the processor count).
    """

    name = "PMAKE"
    primary_metric = "runtime"
    higher_is_better = False
    #: Serial phases as a fraction of total compile work.
    link_fraction = 0.01
    prologue_fraction = 0.002

    def __init__(self, n_files: int = 790, jobs: int = 4) -> None:
        if n_files < 1 or jobs < 1:
            raise ValueError("need at least one file and one job slot")
        self.n_files = n_files
        self.jobs = jobs

    # ------------------------------------------------------------------
    def simulate(self, system: System) -> Dict[str, float]:
        costs = [compile_cost_cycles(i) for i in range(self.n_files)]
        total_compile = sum(costs)
        slots = Semaphore(self.jobs, name="make-jobs")
        done = Semaphore(0, name="make-done")

        def compile_job(cycles: float):
            yield Compute(cycles)
            yield Release(slots)
            yield Release(done)

        def make_body():
            # Serial prologue: makefile parse and dependency scan.
            yield Compute(total_compile * self.prologue_fraction)
            for index, cycles in enumerate(costs):
                yield Acquire(slots)
                yield Spawn(SimThread(f"cc-{index}",
                                      compile_job(cycles), daemon=True))
            for _ in range(self.n_files):
                yield Acquire(done)
            # Serial epilogue: final link and archive.
            yield Compute(total_compile * self.link_fraction)

        system.kernel.start("make", make_body())
        system.run()
        return {
            "runtime": system.now,
            "files_per_second": self.n_files / system.now,
        }
