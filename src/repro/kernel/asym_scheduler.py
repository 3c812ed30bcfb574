"""The paper's asymmetry-aware kernel scheduler (§3.1.1).

    "In the new algorithm, the kernel scheduler ensures faster cores
    never go idle before slower cores.  A process is explicitly
    migrated from a slow core to an idle fast core, if one is
    available."

Three behaviours distinguish it from :class:`SymmetricScheduler`:

1. **Speed-aware placement** — among the least-loaded allowed cores, a
   waking thread goes to the *fastest* one (the stock scheduler picks
   randomly, sometimes parking work on a slow core while a fast core
   idles).
2. **Slow-first stealing** — an idle core prefers to relieve the
   runqueues of the *slowest* loaded cores.
3. **Pull migration** — if nothing is queued anywhere, an idle core
   preempts and pulls the thread *running* on a strictly slower core,
   so a fast core never sits idle while a slow core crunches.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

from repro.kernel.scheduler import DEFAULT_QUANTUM, SymmetricScheduler
from repro.machine.core import Core

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.thread import SimThread


class AsymmetryAwareScheduler(SymmetricScheduler):
    """Speed-aware variant of the load-balancing scheduler.

    Every speed comparison reads :attr:`speed_key` (higher is faster);
    a subclass that knows core speed some other way overrides only
    that key.
    """

    name = "asymmetry-aware"

    #: A core's speed, higher is faster: its current cycle rate.  A C
    #: getter, so the idle-dispatch scans make no Python call per core.
    speed_key = attrgetter("rate")

    # ------------------------------------------------------------------
    def place(self, thread: "SimThread") -> Core:
        candidates, _, _ = self._loads(thread)
        fastest = self._fastest(candidates)
        last = thread.last_core
        for core in fastest:
            if core.index == last:
                return core
        return self.kernel.rng.choice_tiebreak(fastest)

    def _fastest(self, cores: List[Core]) -> List[Core]:
        """The fastest of ``cores`` at their current speed, in order."""
        speed = self.speed_key
        top = max(map(speed, cores))
        return [core for core in cores if speed(core) == top]

    def next_thread(self, core: Core) -> Optional["SimThread"]:
        queue = self.kernel.runqueues[core.index]
        if queue:
            return queue.popleft()
        stolen = self._steal(core)
        if stolen is not None:
            return stolen
        return self._pull_from_slower(core)

    # ------------------------------------------------------------------
    def _steal_victims(self, core: Core) -> List[Core]:
        """Victims ordered slowest-first, then by queue length.

        Relieving the slowest core first is what keeps total progress
        maximal on an asymmetric machine.
        """
        queues = self.kernel.runqueues
        speed = self.speed_key
        victims = [v for v in self.kernel.machine.cores
                   if v is not core and v.online and queues[v.index]]
        victims.sort(key=lambda v: (speed(v), -len(queues[v.index])))
        return victims

    def _steal(self, core: Core) -> Optional["SimThread"]:
        queues = self.kernel.runqueues
        if not any(queues):
            return None
        for victim in self._steal_victims(core):
            queue = queues[victim.index]
            for position in range(len(queue) - 1, -1, -1):
                thread = queue[position]
                if thread.allowed_on(core.index):
                    del queue[position]
                    self._trace_steal(thread, victim, core)
                    return thread
        return None

    def _pull_from_slower(self, core: Core) -> Optional["SimThread"]:
        """Yank the running thread off the slowest strictly-slower core."""
        speed = self.speed_key
        mine = speed(core)
        candidates = []
        for victim in self.kernel.machine.cores:
            if victim is core or not victim.online \
                    or speed(victim) >= mine:
                continue
            running = victim.current_thread
            if running is not None and running.allowed_on(core.index):
                candidates.append(victim)
        if not candidates:
            return None
        return self.kernel.preempt_current(min(candidates, key=speed))


class RankOnlyAsymmetryScheduler(AsymmetryAwareScheduler):
    """Asymmetry-aware scheduling from *relative* speed ranks only.

    The paper's point 4 conjectures: "Exposing the relative
    performance of processors ... may be sufficient, and absolute
    information of each processor's performance may not be necessary."
    This scheduler is handed nothing but a ranking of the cores
    (fastest first) — no frequencies, no duty cycles — and its speed
    key is the negated rank, so every rate comparison of the parent
    becomes a rank comparison.  Its decisions are provably identical
    to :class:`AsymmetryAwareScheduler`'s whenever the ranking is
    consistent with the true speeds, which the tests verify
    empirically.
    """

    name = "rank-only-asymmetry-aware"

    def __init__(self, ranking=None,
                 quantum: float = DEFAULT_QUANTUM) -> None:
        super().__init__(quantum)
        #: Speed classes fastest-first, each a group of core indices
        #: that benchmarked as equally fast (flat ints allowed for
        #: singleton groups).  None = calibrate at attach time with a
        #: boot micro-benchmark, keeping only the grouping/order.
        self._ranking = ranking
        self._rank_of = None

    def attach(self, kernel) -> None:
        super().attach(kernel)
        if self._ranking is None:
            # Boot-time calibration (paper §2's validation spin loop):
            # equal measured runtimes fall into the same speed class.
            groups = {}
            for core in kernel.machine.cores:
                groups.setdefault(core.rate, []).append(core.index)
            self._ranking = [groups[rate]
                             for rate in sorted(groups, reverse=True)]
        self._rank_of = {}
        for rank, group in enumerate(self._ranking):
            members = group if isinstance(group, (list, tuple)) \
                else [group]
            for index in members:
                self._rank_of[index] = rank

    def speed_key(self, core) -> int:
        """The negated rank: higher is faster, as with rates."""
        return -self._rank_of[core.index]
