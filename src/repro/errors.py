"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """A structural problem in the discrete-event simulation itself."""


class SchedulingError(SimulationError):
    """The kernel scheduler reached an inconsistent state."""


class ConfigurationError(ReproError):
    """An invalid machine or experiment configuration was requested."""


class DeadlockError(SimulationError):
    """The simulation stalled with live threads but no runnable work.

    Raised by the kernel when the event queue drains while threads are
    still blocked on synchronization objects — the simulated program has
    deadlocked (or the workload model forgot a wakeup).
    """

    def __init__(self, message: str, blocked_threads=()) -> None:
        super().__init__(message)
        #: Names of the threads that were blocked when the deadlock hit.
        self.blocked_threads = tuple(blocked_threads)


class WorkloadError(ReproError):
    """A workload model was driven with inconsistent parameters."""

