"""The :class:`System` façade: machine + simulator + kernel in one box.

Workload models and experiments always operate on a ``System``; tests
construct them directly for fine-grained scenarios.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.kernel.kernel import Kernel
from repro.kernel.scheduler import Scheduler
from repro.machine.topology import Machine, MachineConfig
from repro.sim.engine import Simulator


class System:
    """A complete simulated platform.

    Parameters
    ----------
    machine:
        The simulated multiprocessor.
    seed:
        Master seed; every random stream in the simulation derives
        from it, so two systems with the same seed and workload behave
        identically.
    scheduler:
        Kernel scheduling policy; default is the stock
        :class:`~repro.kernel.scheduler.SymmetricScheduler`.
    coalesce:
        Quantum coalescing override for the kernel: ``True``/``False``
        pin the fast path on/off, ``None`` (default) follows the
        environment (see
        :func:`repro.kernel.kernel.coalescing_enabled`).  Either way
        observable behaviour is byte-identical; this only selects how
        uncontended timeslices are executed.
    trace:
        Trace categories the simulator records from the start; None
        (default) records nothing.
    """

    def __init__(self, machine: Machine, seed: int = 0,
                 scheduler: Optional[Scheduler] = None,
                 coalesce: Optional[bool] = None,
                 trace: Optional[Iterable[str]] = None) -> None:
        self.machine = machine
        self.sim = Simulator(seed=seed, trace=trace)
        self.kernel = Kernel(self.sim, machine, scheduler,
                             coalesce=coalesce)

    @classmethod
    def build(cls, config: str, seed: int = 0,
              scheduler: Optional[Scheduler] = None,
              coalesce: Optional[bool] = None,
              trace: Optional[Iterable[str]] = None) -> "System":
        """Build a system from an ``nf-ms/scale`` label."""
        if isinstance(config, MachineConfig):
            machine = Machine(config)
        else:
            machine = Machine.from_label(config)
        return cls(machine, seed=seed, scheduler=scheduler,
                   coalesce=coalesce, trace=trace)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def counters(self):
        """Workload-level named counters (see :mod:`repro.metrics`).

        Runtime and workload models increment these by name, e.g.
        ``system.counters.incr("gc.collections")``; they end up in the
        run's :class:`~repro.metrics.RunMetrics`.
        """
        return self.kernel.metrics.counters

    def run_metrics(self):
        """Snapshot the run's always-on counters as ``RunMetrics``."""
        return self.kernel.run_metrics()

    @property
    def label(self) -> str:
        return self.machine.label

    def run(self, until: Optional[float] = None) -> float:
        """Run the kernel (see :meth:`repro.kernel.kernel.Kernel.run`)."""
        return self.kernel.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"System({self.label}, "
                f"scheduler={self.kernel.scheduler.name})")
