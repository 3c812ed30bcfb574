"""Kernel synchronization objects: mutexes, barrier, condvar, semaphore.

These hold *state only*; the blocking/waking/spinning mechanics live
in the kernel (:mod:`repro.kernel.kernel`), which manipulates the wait
queues stored here.  All wait queues are FIFO, so wakeup order is
deterministic.

Lock taxonomy (DESIGN.md §11)
-----------------------------
Four mutual-exclusion kinds share the :class:`Mutex` state layout and
the ``Lock``/``Unlock`` instructions; they differ only in how a
*contended* acquire waits and how a release picks a successor:

``fifo``
    :class:`Mutex` — blocking, strict FIFO handoff (the historical
    default; release transfers ownership to the longest waiter).
``spin``
    :class:`SpinMutex` — a contended acquirer *burns cycles on its
    core* in ``spin_check_cycles`` bursts, re-checking the lock at
    each burst boundary.  Whoever's burst drains first after a release
    wins (unordered, like a test-and-set lock); spin time costs
    ``time_at_speed`` like real work, so a slow core spins longer per
    check.
``mcs``
    :class:`MCSMutex` — spins like ``spin`` but grants in strict
    arrival order (each waiter effectively spins on its queue
    predecessor, as in an MCS queue lock), so handoff is FIFO while
    the waiting still occupies the waiter's core.
``asym``
    :class:`AsymMutex` — blocking like ``fifo``, but release prefers
    the first waiter that last ran on a *fast* core, skipping
    slow-core waiters (each skip is capped by ``max_bypass`` to bound
    unfairness), and optionally migrates the successor to an idle
    fast core for its critical section (``migrate=True``) — the
    asymmetry-aware shuffle-lock policy of LibASL (arXiv:2108.03355).

Anonymous sync objects are *lazily* named by the first kernel that
touches them (``mutex-1``, ``mutex-2``, ... in simulation order), so
auto-generated names — which appear in block spans, deadlock reports
and golden fixtures — never depend on how many objects other tests or
other :class:`~repro._system.System` instances created first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Deque, Optional

from collections import deque

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.thread import SimThread

#: Lock kinds accepted by :func:`make_lock`, in documentation order.
LOCK_KINDS = ("fifo", "spin", "mcs", "asym")

#: Default cycles a spin-kind waiter burns between lock re-checks.
#: Roughly the cost of a cache-miss polling loop iteration batch; the
#: value only sets the granularity at which spinners notice a release
#: (and therefore how much spin time a slow holder wastes).
DEFAULT_SPIN_CHECK_CYCLES = 50_000.0

#: Default bypass cap for :class:`AsymMutex`: a waiter skipped this
#: many times is granted next regardless of its core's speed class.
DEFAULT_MAX_BYPASS = 4


class Mutex:
    """A blocking mutual-exclusion lock with a FIFO wait queue."""

    #: Mode name (``make_lock`` key) of this class.
    kind = "fifo"
    #: True when contended acquires spin on-core instead of blocking.
    spins = False
    #: Prefix for kernel-assigned lazy names.
    _auto_prefix = "mutex"

    def __init__(self, name: str = "") -> None:
        #: Empty until explicitly named or first touched by a kernel
        #: (which assigns ``mutex-N`` scoped to that kernel).
        self.name = name
        self.owner: Optional["SimThread"] = None
        self.waiters: Deque["SimThread"] = deque()
        #: Total times any thread had to wait (block or spin) here.
        self.contention_count = 0
        #: Total successful acquires (contended or not).
        self.acquisitions = 0
        #: High-water mark of the wait queue.
        self.max_queue_depth = 0

    @property
    def wait_label(self) -> str:
        """Block reason / timeline span name for waiters."""
        return f"lock {self.name}"

    def __repr__(self) -> str:  # pragma: no cover
        owner = self.owner.name if self.owner else None
        return (f"{type(self).__name__}({self.name!r}, owner={owner}, "
                f"waiters={len(self.waiters)})")


class SpinMutex(Mutex):
    """A test-and-set style spinlock: contended acquirers burn cycles.

    A waiter never blocks; it runs ``spin_check_cycles`` of busy-wait
    compute (costing real core time at the core's speed), re-checks
    the lock, and repeats.  Acquisition order among spinners is
    whoever's check lands first after a release — deterministic in
    simulation order, but *not* FIFO (arrival order only breaks ties).
    """

    kind = "spin"
    spins = True

    def __init__(self, name: str = "",
                 spin_check_cycles: float = DEFAULT_SPIN_CHECK_CYCLES,
                 ) -> None:
        super().__init__(name)
        if spin_check_cycles <= 0:
            raise SchedulingError(
                f"spin_check_cycles must be positive, "
                f"got {spin_check_cycles}")
        self.spin_check_cycles = float(spin_check_cycles)
        #: Speed class of the last releasing core while a handoff is
        #: in flight (release happened, next spinner not yet granted);
        #: lets the kernel attribute the handoff pair at grant time.
        self.release_class: Optional[str] = None


class MCSMutex(SpinMutex):
    """An MCS-style queued spinlock: local spinning, FIFO handoff.

    Waiters spin like :class:`SpinMutex`, but a release may only be
    claimed by the *head* of the wait queue (each waiter effectively
    spins on its predecessor's hand-off flag), so grants follow strict
    arrival order even though the waiting burns core cycles.
    """

    kind = "mcs"


class AsymMutex(Mutex):
    """A blocking lock with speed-class-aware handoff (LibASL).

    On release, the successor is the first waiter whose bypass count
    reached ``max_bypass`` (fairness backstop); otherwise the first
    waiter that last ran on a *fast* core; otherwise the FIFO head.
    Every waiter skipped over has its bypass count incremented.  With
    ``migrate=True`` a successor last seen on a slow core is woken
    onto the fastest idle core that will take it, so the critical
    section itself runs at full speed.
    """

    kind = "asym"

    def __init__(self, name: str = "",
                 max_bypass: int = DEFAULT_MAX_BYPASS,
                 migrate: bool = True) -> None:
        super().__init__(name)
        if max_bypass < 1:
            raise SchedulingError(
                f"max_bypass must be >= 1, got {max_bypass}")
        self.max_bypass = int(max_bypass)
        self.migrate = bool(migrate)


#: ``make_lock`` registry; insertion order matches :data:`LOCK_KINDS`.
_LOCK_CLASSES = {
    "fifo": Mutex,
    "spin": SpinMutex,
    "mcs": MCSMutex,
    "asym": AsymMutex,
}


def make_lock(kind: str, name: str = "", **kwargs) -> Mutex:
    """Build a mutex of the named ``kind`` (see :data:`LOCK_KINDS`).

    Workloads expose a ``lock_kind`` knob and route it through here,
    so every critical section in the suite can be re-run under any
    locking discipline without touching workload code.
    """
    try:
        cls = _LOCK_CLASSES[kind]
    except KeyError:
        raise SchedulingError(
            f"unknown lock kind {kind!r}; expected one of "
            f"{', '.join(LOCK_KINDS)}") from None
    return cls(name, **kwargs)


class Barrier:
    """A reusable barrier for a fixed number of parties.

    Threads block in :class:`~repro.kernel.instructions.BarrierWait`
    until ``parties`` threads have arrived, then all are released and
    the barrier resets for the next generation (matching the OpenMP
    end-of-loop barrier the SPEC OMP workloads rely on).
    """

    _auto_prefix = "barrier"

    def __init__(self, parties: int, name: str = "") -> None:
        if parties < 1:
            raise SchedulingError(f"barrier needs >= 1 party, got {parties}")
        self.name = name
        self.parties = parties
        self.waiting: Deque["SimThread"] = deque()
        #: Completed generations (how many times the barrier tripped).
        self.generation = 0

    @property
    def n_waiting(self) -> int:
        return len(self.waiting)

    @property
    def wait_label(self) -> str:
        """Block reason / timeline span name for waiters."""
        return f"barrier {self.name}"

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Barrier({self.name!r}, {self.n_waiting}/"
                f"{self.parties} waiting, gen={self.generation})")


class CondVar:
    """A condition variable used with an associated :class:`Mutex`."""

    _auto_prefix = "cond"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.waiters: Deque["SimThread"] = deque()

    @property
    def wait_label(self) -> str:
        """Block reason / timeline span name for waiters."""
        return f"wait {self.name}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"CondVar({self.name!r}, waiters={len(self.waiters)})"


class Semaphore:
    """A counting semaphore with a FIFO wait queue."""

    _auto_prefix = "sem"

    def __init__(self, permits: int, name: str = "") -> None:
        if permits < 0:
            raise SchedulingError(
                f"semaphore permits must be >= 0, got {permits}")
        self.name = name
        self.permits = permits
        self.waiters: Deque["SimThread"] = deque()

    @property
    def wait_label(self) -> str:
        """Block reason / timeline span name for waiters."""
        return f"acquire {self.name}"

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Semaphore({self.name!r}, permits={self.permits}, "
                f"waiters={len(self.waiters)})")
