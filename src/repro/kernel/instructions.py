"""The virtual instruction set executed by simulated threads.

A simulated thread's body is a Python generator that *yields*
instructions to the kernel.  The kernel fulfils each instruction —
burning CPU cycles on whatever core the thread is scheduled on,
blocking on synchronization objects, sleeping — and resumes the
generator with the instruction's result value.

Example
-------
::

    def worker(mutex):
        yield Compute(5_000_000)          # 5M cycles of work
        yield Lock(mutex)
        yield Compute(1_000_000)          # critical section
        yield Unlock(mutex)
        now = yield GetTime()
        return now                        # visible to Join()

Only :class:`Compute` consumes CPU time; every other instruction is
instantaneous (possibly blocking) kernel work.  This matches the level
of abstraction the paper needs: its effects are driven entirely by how
compute work is distributed over unequal cores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.kernel.sync import Barrier, CondVar, Mutex, Semaphore
    from repro.kernel.thread import SimThread


class Instruction:
    """Base class for all virtual instructions."""

    __slots__ = ()


class Compute(Instruction):
    """Execute ``cycles`` of CPU-bound work.

    The wall time consumed depends on the speed of the core the kernel
    runs this on, and the work may be preempted and resumed (possibly
    on a different core) at quantum boundaries.
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: float) -> None:
        if not cycles >= 0:  # also rejects NaN
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        self.cycles = float(cycles)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Compute({self.cycles:.0f})"


class Sleep(Instruction):
    """Leave the CPU for ``seconds`` of simulated wall time.

    Models blocking I/O, network waits and timed sleeps — anything that
    takes wall time without occupying a core.
    """

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        if not seconds >= 0:  # also rejects NaN
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self.seconds = float(seconds)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Sleep({self.seconds:.6f})"


class Lock(Instruction):
    """Acquire ``mutex``, waiting while another thread owns it.

    How a contended acquire waits depends on the mutex kind (see
    :mod:`repro.kernel.sync`): blocking kinds deschedule the thread;
    spin kinds keep the core and burn cycles until the lock frees.
    """

    __slots__ = ("mutex",)

    def __init__(self, mutex: "Mutex") -> None:
        self.mutex = mutex


class Unlock(Instruction):
    """Release ``mutex``; its handoff policy picks the successor
    (FIFO by default — see the lock taxonomy in
    :mod:`repro.kernel.sync`)."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: "Mutex") -> None:
        self.mutex = mutex


class BarrierWait(Instruction):
    """Block until all parties have arrived at ``barrier``."""

    __slots__ = ("barrier",)

    def __init__(self, barrier: "Barrier") -> None:
        self.barrier = barrier


class Wait(Instruction):
    """Condition-variable wait: atomically release ``mutex``, block
    until notified, then re-acquire ``mutex`` before completing."""

    __slots__ = ("condvar", "mutex")

    def __init__(self, condvar: "CondVar", mutex: "Mutex") -> None:
        self.condvar = condvar
        self.mutex = mutex


class Notify(Instruction):
    """Wake up to ``count`` waiters of ``condvar`` (all if None)."""

    __slots__ = ("condvar", "count")

    def __init__(self, condvar: "CondVar",
                 count: Optional[int] = 1) -> None:
        self.condvar = condvar
        self.count = count


class Acquire(Instruction):
    """Semaphore P(): block until a permit is available."""

    __slots__ = ("semaphore",)

    def __init__(self, semaphore: "Semaphore") -> None:
        self.semaphore = semaphore


class Release(Instruction):
    """Semaphore V(): add a permit, waking one waiter if any."""

    __slots__ = ("semaphore",)

    def __init__(self, semaphore: "Semaphore") -> None:
        self.semaphore = semaphore


class Spawn(Instruction):
    """Start ``thread``; the instruction's result is the thread object."""

    __slots__ = ("thread",)

    def __init__(self, thread: "SimThread") -> None:
        self.thread = thread


class Join(Instruction):
    """Block until ``thread`` terminates; result is its return value."""

    __slots__ = ("thread",)

    def __init__(self, thread: "SimThread") -> None:
        self.thread = thread


class YieldCPU(Instruction):
    """Voluntarily relinquish the core (go to the back of its queue)."""

    __slots__ = ()


class SetAffinity(Instruction):
    """Restrict the thread to the given core indices (None = clear).

    Models the process-affinity API the paper uses to bind processes
    (paper §2) and that DB2/Zeus use internally (§3.3, §3.4).
    """

    __slots__ = ("cores",)

    def __init__(self, cores: Optional[Iterable[int]]) -> None:
        self.cores = None if cores is None else frozenset(cores)


class GetTime(Instruction):
    """Result is the current simulated time (seconds)."""

    __slots__ = ()


class GetCore(Instruction):
    """Result is the index of the core currently executing the thread."""

    __slots__ = ()
