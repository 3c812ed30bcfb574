"""Kernel scheduling policies.

Two policies matter for the reproduction:

* :class:`SymmetricScheduler` — models the stock Linux 2.4/2.6 behaviour
  the paper starts from: per-core runqueues, least-loaded placement,
  cache-affine stickiness, idle stealing.  It is deliberately **blind to
  core speed**: "the kernel scheduler places processes on slower cores
  even though a faster core is available because it is agnostic to the
  relative speed of the processors" (paper §3.4.1).  Ties between
  equally loaded cores are broken with a seeded random stream — this is
  the modelled source of run-to-run nondeterminism that real systems
  get from timing races.

* :class:`AsymmetryAwareScheduler` (in
  :mod:`repro.kernel.asym_scheduler`) — the paper's §3.1.1 fix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.machine.core import Core

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import SimThread

#: Default scheduling quantum (seconds). Within the range of the Linux
#: kernels the paper used (tens of milliseconds).
DEFAULT_QUANTUM = 0.010


class Scheduler:
    """Policy interface consulted by the kernel.

    Subclasses decide *where* ready threads go and *what* an idle core
    runs next; the kernel owns the mechanism (runqueues, slices,
    blocking).

    :attr:`coalesce_safe` is the policy's only contract with the
    kernel's quantum-coalescing fast path (DESIGN.md §9).  Policies may
    read and pop ``kernel.runqueues`` directly: a macro slice only
    lives on a core whose runqueue is empty, so a non-empty queue is
    never stale, and a running thread is preempted only through
    :meth:`~repro.kernel.kernel.Kernel.preempt_current`, which
    re-splits any macro first.
    """

    name = "base"

    #: True promises that :meth:`should_preempt` stays False at every
    #: quantum boundary while the core's runqueue remains empty — the
    #: contract the kernel's quantum-coalescing fast path needs before
    #: it replaces per-quantum slice events with one closed-form macro
    #: slice.  False (the base policy's answer) disables coalescing
    #: for subclasses that have not audited ``should_preempt`` against
    #: the contract.
    coalesce_safe = False

    def __init__(self, quantum: float = DEFAULT_QUANTUM) -> None:
        if quantum <= 0:
            raise SchedulingError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum
        self.kernel: Optional["Kernel"] = None

    # ------------------------------------------------------------------
    def attach(self, kernel: "Kernel") -> None:
        """Bind this policy to a kernel (called by the kernel)."""
        self.kernel = kernel

    def place(self, thread: "SimThread") -> Core:
        """Choose the core whose runqueue receives a newly ready thread."""
        raise NotImplementedError

    def next_thread(self, core: Core) -> Optional["SimThread"]:
        """Pick the next thread for an idle ``core`` (may steal/migrate).

        Returning None leaves the core idle.
        """
        raise NotImplementedError

    def should_preempt(self, core: Core, thread: "SimThread") -> bool:
        """Preempt ``thread`` at quantum expiry on ``core``?"""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _loads(self, thread: "SimThread"
               ) -> Tuple[List[Core], int, Optional[int]]:
        """Scan the machine once for ``thread``'s placement candidates.

        Returns ``(candidates, load, last_load)``: the online cores the
        thread's affinity permits that carry the least load, in core
        order; that load; and the load of the thread's last core, or
        None when it has none or may not use it now.  Load is runqueue
        length plus the running thread, as Linux counts it.  Offline
        cores (fault injection hot-unplug) are never candidates; a
        thread whose affinity names only offline cores is a scheduling
        error.
        """
        queues = self.kernel.runqueues
        affinity = thread.affinity
        last = thread.last_core
        candidates: List[Core] = []
        least = -1
        last_load = None
        for core in self.kernel.machine.cores:
            index = core.index
            if not core.online or (affinity is not None
                                   and index not in affinity):
                continue
            load = len(queues[index])
            if core.current_thread is not None:
                load += 1
            if index == last:
                last_load = load
            if load < least or least < 0:
                least = load
                candidates = [core]
            elif load == least:
                candidates.append(core)
        if not candidates:
            raise SchedulingError(
                f"thread {thread.name!r} has no online allowed core")
        return candidates, least, last_load


class SymmetricScheduler(Scheduler):
    """Speed-agnostic load balancing (models the stock kernels).

    Placement: least-loaded allowed core; prefer the thread's previous
    core among the least-loaded (cache affinity); otherwise break ties
    randomly.  Idle cores steal from the longest runqueue.  Core speed
    is never consulted.
    """

    name = "symmetric"

    #: A thread that executed within this window is considered
    #: cache-hot and is not migrated by idle stealing (models Linux's
    #: ``can_migrate_task`` / ``task_hot`` check).  This is what leaves
    #: an important thread stranded on a slow core while fast cores
    #: idle — the stock-kernel behaviour the paper observes.
    cache_hot_seconds = 0.020

    #: A waking thread leaves its last core only when that core's load
    #: exceeds the least-loaded allowed core by at least this much.
    #: Linux wake affinity is strongly sticky — migration happens via
    #: the balancer's ~25% imbalance hysteresis, not per wakeup — so
    #: transient burst imbalances (3 vs 1 runnable) do not move tasks.
    rebalance_threshold = 3

    #: Never preempts spontaneously: :meth:`should_preempt` only
    #: consults the core's own runqueue, and a thread can land there
    #: only through an event the kernel's coalescing machinery already
    #: re-splits on (wakeup, spawn, fault drain).  The asymmetry-aware
    #: policies inherit this: pull migration does preempt a running
    #: thread, but always from another core's dispatch, through
    #: ``Kernel.preempt_current``, which re-splits a live macro slice.
    coalesce_safe = True

    def place(self, thread: "SimThread") -> Core:
        kernel = self.kernel
        last = thread.last_core
        if last is not None:
            # A last core loaded below the threshold keeps the thread
            # whatever the least load is (no load is negative), so the
            # machine scan cannot change the answer.
            core = kernel.machine.cores[last]
            if core.online and thread.allowed_on(last):
                load = len(kernel.runqueues[last])
                if core.current_thread is not None:
                    load += 1
                if load < self.rebalance_threshold:
                    return core
        candidates, least, last_load = self._loads(thread)
        if last is None:
            # New thread.  Under the era's global-runqueue kernels a
            # fresh child is grabbed by whichever core happens to be
            # idle — effectively a random, speed-blind pick among idle
            # cores ("threads may randomly schedule on fast or slow
            # processors", paper §3.4.1).  With no idle core it starts
            # on its parent's core (fork placement), else least-loaded.
            if least == 0:
                return kernel.rng.choice_tiebreak(candidates)
            hint = thread.spawn_core_hint
            if hint is not None:
                parent = kernel.machine.cores[hint]
                if parent.online and thread.allowed_on(hint):
                    return parent
            return kernel.rng.choice_tiebreak(candidates)
        # Waking thread: wake affinity keeps it on its previous core
        # (cache warmth) unless that core is clearly overloaded — the
        # stock kernels migrate via balancing hysteresis, not per
        # wakeup.  This is what leaves a process on a slow core "even
        # though a faster core is available" (§3.4.1): the policy
        # never consults core speed.
        if last_load is not None \
                and last_load - least < self.rebalance_threshold:
            return kernel.machine.cores[last]
        return kernel.rng.choice_tiebreak(candidates)

    def next_thread(self, core: Core) -> Optional["SimThread"]:
        queue = self.kernel.runqueues[core.index]
        if queue:
            return queue.popleft()
        return self._steal(core)

    def should_preempt(self, core: Core, thread: "SimThread") -> bool:
        return len(self.kernel.runqueues[core.index]) > 0

    # ------------------------------------------------------------------
    def _steal_victims(self, core: Core) -> List[Core]:
        """Victim cores ordered by preference (longest queue first)."""
        queues = self.kernel.runqueues
        victims = [v for v in self.kernel.machine.cores
                   if v is not core and v.online and queues[v.index]]
        victims.sort(key=lambda v: -len(queues[v.index]))
        return victims

    def _steal(self, core: Core) -> Optional["SimThread"]:
        """Take a queued thread from the most loaded other core."""
        if not any(self.kernel.runqueues):
            return None
        victims = self._steal_victims(core)
        if not victims:
            return None
        queues = self.kernel.runqueues
        best_len = len(queues[victims[0].index])
        best = [v for v in victims if len(queues[v.index]) == best_len]
        if len(best) > 1:
            # Random tie-break among equally loaded victims, then fall
            # back to the rest in deterministic order.
            first = self.kernel.rng.choice_tiebreak(best)
            victims = [first] + [v for v in victims if v is not first]
        now = self.kernel.now
        for victim in victims:
            queue = queues[victim.index]
            # Steal from the tail (coldest cache footprint), skipping
            # threads whose affinity forbids this core and threads that
            # are still cache-hot on the victim.
            for position in range(len(queue) - 1, -1, -1):
                thread = queue[position]
                if not thread.allowed_on(core.index):
                    continue
                if (thread.last_ran_at is not None
                        and now - thread.last_ran_at
                        < self.cache_hot_seconds):
                    continue
                del queue[position]
                self._trace_steal(thread, victim, core)
                return thread
        return None

    def _trace_steal(self, thread: "SimThread", victim: Core,
                     core: Core) -> None:
        """Trace point for an idle-steal migration decision."""
        tracer = self.kernel.sim.tracer
        if "sched" in tracer.active:
            tracer.record(self.kernel.now, "sched", event="steal",
                          thread=thread.name, src=victim.index,
                          core=core.index)
