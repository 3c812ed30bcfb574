"""The simulated operating-system kernel.

The :class:`Kernel` owns the mechanism of multiprocessor scheduling:
per-core runqueues, quantum-sliced execution of ``Compute``
instructions, blocking on synchronization objects, sleep timers,
wakeups and migrations.  *Policy* — where threads are placed and what
an idle core runs — is delegated to a :class:`~repro.kernel.scheduler.
Scheduler`.

Execution model
---------------
Thread bodies are generators yielding instructions.  Only ``Compute``
consumes simulated time; the kernel slices it into scheduler quanta so
threads can be preempted and migrated mid-instruction.  All other
instructions execute instantaneously in kernel context (possibly
leaving the thread blocked).  Dispatch is always performed from a
zero-delay event, never recursively, which keeps the Python stack flat
and the event order deterministic.
"""

from __future__ import annotations

import os
from collections import deque
from math import frexp as _frexp
from typing import Any, Callable, Deque, Dict, Generator, List, Optional

from repro.errors import DeadlockError, SchedulingError, SimulationError
from repro.histogram import BUCKET_OFFSET as _HIST_OFFSET
from repro.histogram import bucket_array
from repro.kernel import instructions as ins
from repro.kernel.scheduler import Scheduler, SymmetricScheduler
from repro.kernel.thread import SimThread, ThreadState
from repro.machine.core import Core
from repro.machine.topology import Machine
from repro.metrics import MetricsCollector, RunMetrics
from repro.sim.engine import Simulator
from repro.sim.events import Event

#: Cycle-accounting slack for floating point (half a cycle).
_CYCLE_EPSILON = 0.5

#: Consecutive zero-time instructions one thread may run before the
#: kernel declares an instruction livelock (a buggy workload model).
_INSTANT_GUARD = 1_000_000

#: Floor on slice length so a nearly exhausted quantum cannot create
#: an avalanche of infinitesimal slices.
_MIN_SLICE = 1e-6

_INF = float("inf")

# Thread states, aliased because the dispatch loop reads them millions
# of times per run, and an Enum member read goes through the enum
# class's attribute machinery on every access.
_NEW = ThreadState.NEW
_READY = ThreadState.READY
_RUNNING = ThreadState.RUNNING
_BLOCKED = ThreadState.BLOCKED
_SLEEPING = ThreadState.SLEEPING
_TERMINATED = ThreadState.TERMINATED

# ----------------------------------------------------------------------
# Default for the quantum-coalescing fast path (DESIGN.md §9): on,
# unless the REPRO_NO_COALESCE environment variable (CI's slow-path
# leg) turns it off.  A run's ``RunOptions.coalesce`` (the CLI's
# --no-coalesce) and the kernel's ``coalesce`` constructor argument
# override it; tests and benchmarks use the latter to compare the two
# executions side by side.
# ----------------------------------------------------------------------
def coalescing_enabled() -> bool:
    """The default coalescing mode.

    ``REPRO_NO_COALESCE`` (any value but empty/``0``) selects the
    sliced slow path.
    """
    return os.environ.get("REPRO_NO_COALESCE", "0") in ("", "0")


class _Slice(Event):
    """A compute slice in progress on a core, and its own end event.

    The slice is queued through
    :meth:`~repro.sim.events.EventQueue.push_event` and fires
    ``callback(core)`` (``_on_slice_end`` or ``_on_macro_end``) at
    ``time``; cancelling the slice cancels its end.  A slice that
    fired has no heap entry left, so its core re-arms it for the next
    slice.  A cancelled slice is never pushed again, because it stays
    buried in the heap: a slice re-armed after a split is a fresh
    object.
    """

    __slots__ = ("thread", "start", "rate", "span")

    def __init__(self, time: float, callback: Callable[..., Any],
                 args: tuple, thread: SimThread, start: float,
                 rate: float, span=None) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.thread = thread
        self.start = start
        self.rate = rate
        #: Open ``"exec"`` timeline span, or None when tracing is off.
        self.span = span


class Kernel:
    """Mechanism layer binding a machine, a simulator and a policy."""

    def __init__(self, sim: Simulator, machine: Machine,
                 scheduler: Optional[Scheduler] = None,
                 coalesce: Optional[bool] = None) -> None:
        self.sim = sim
        self.machine = machine
        self.scheduler = scheduler if scheduler is not None \
            else SymmetricScheduler()
        self.scheduler.attach(self)
        #: Random stream used by the scheduler for tie-breaking.
        self.rng = sim.stream("kernel.sched")
        # Hot-path aliases: the tracer object and its (in-place
        # mutated) active-category set never get reassigned, so the
        # dispatch loop can skip the sim.tracer attribute chain.
        self._tracer = sim.tracer
        self._tracer_active = sim.tracer.active

        #: Ready queue of each core, indexed by core index (read and
        #: popped by the scheduler).  A core with a live macro slice
        #: always has an empty queue: arming requires it, and every
        #: enqueue onto a coalesced core splits the macro first.
        self.runqueues: List[Deque[SimThread]] = [
            deque() for _ in machine.cores]
        #: Compute slices in progress, by core index.  Each is its own
        #: end event, pushed straight onto the simulator's queue (the
        #: slice sites make ``Simulator.schedule``'s past-time check
        #: themselves).
        self._slices: Dict[int, _Slice] = {}
        #: Per core index, a slice of that core that fired and is not
        #: in ``_slices``: its heap entry is gone, so the core's next
        #: slice re-arms it instead of allocating one.
        self._spare: List[Optional[_Slice]] = [None] * len(machine.cores)
        self._queue = sim._queue
        #: ``(core,)`` per core index: the argument tuple shared by
        #: every slice and dispatch event of that core.
        self._core_args = [(core,) for core in machine.cores]
        self._dispatch_pending: List[bool] = [False] * len(machine.cores)
        #: Quantum-coalescing fast path (DESIGN.md §9).  None resolves
        #: the environment default; an explicit bool pins this kernel.
        self._coalesce = coalescing_enabled() if coalesce is None \
            else bool(coalesce)
        #: Cores running a live macro slice, by index, in arming order.
        #: Empty whenever coalescing is off — hot paths guard on the
        #: dict's truthiness alone.
        self._macros: Dict[int, Core] = {}
        # Bound once so EventQueue.horizon can recognize this kernel's
        # own slice events by callback equality.
        self._slice_callbacks = (self._on_slice_end, self._on_macro_end)
        # Position of the engine's same-instant group sweep: the core
        # whose boundary event is (or was last) being processed at
        # ``_sweep_time``.  At a timestamp shared by several cores'
        # boundaries the engine fires them in core order, so a split
        # of core V's macro requested from core R's processing must
        # replay a boundary landing *exactly at now* iff V < R — under
        # sliced execution that boundary's event has already fired.
        self._sweep_time = -1.0
        self._sweep_group = -1
        #: Per-kernel counters behind the lazy auto-naming of
        #: anonymous sync objects (``mutex-1``, ``barrier-1``, ... in
        #: simulation order).  Scoping the counters here keeps
        #: auto-generated names — which reach block spans, deadlock
        #: reports and golden fixtures — independent of how many sync
        #: objects other kernels in the process created first.
        self._sync_names: Dict[str, int] = {}
        #: What ``_process`` does with each instruction type: the
        #: zero-time handler, or None for ``Compute``.  Keyed by exact
        #: type; ``_resolve`` adds a subclass on first sight.
        self._handlers: Dict[type, Optional[Callable[..., bool]]] = {
            ins.Compute: None, ins.Sleep: self._do_sleep,
            ins.Lock: self._do_lock, ins.Unlock: self._do_unlock,
            ins.BarrierWait: self._do_barrier, ins.Wait: self._do_cond_wait,
            ins.Notify: self._do_notify, ins.Acquire: self._do_acquire,
            ins.Release: self._do_release, ins.Spawn: self._do_spawn,
            ins.Join: self._do_join, ins.YieldCPU: self._do_yield,
            ins.SetAffinity: self._do_set_affinity,
            ins.GetTime: self._do_get_time, ins.GetCore: self._do_get_core,
        }
        self.threads: List[SimThread] = []
        # Live bookkeeping so the run loop never scans self.threads:
        # counts of non-daemon threads ever spawned / not yet terminated.
        self._nondaemon_spawned = 0
        self._nondaemon_live = 0

        # ---------------------------- metrics --------------------------
        self.preempt_pulls = 0
        #: Always-on structured counters (see :mod:`repro.metrics`).
        #: Hot paths update its per-core lists inline; snapshot with
        #: :meth:`run_metrics`.
        self.metrics = MetricsCollector(machine)

        # Always-on streaming latency histograms (see repro.histogram).
        # The hot paths maintain flat bucket arrays inline — a list
        # increment, no method call — with a one-entry (value, index)
        # memo in front of math.frexp: slice lengths are overwhelmingly
        # the exact scheduler quantum, so the memo hits almost always.
        # MetricsCollector.snapshot wraps the arrays into
        # LatencyHistogram objects on RunMetrics.histograms.
        #: Ready-to-dispatch wait per dispatch ("sched_latency_seconds").
        #: Zero waits (the common idle-dispatch case) are not counted
        #: inline: zeros == the cores' dispatches - sum of buckets.  The
        #: value total lives per core (``Core.lat_total``); the
        #: snapshot sums the cores in index order.
        self._hb_latency: List[int] = bucket_array()
        self._lat_memo_val = -1.0
        self._lat_memo_key = 0
        #: Retired compute slice lengths ("slice_seconds").  The value
        #: sum is not accumulated inline: it equals the cores' total
        #: busy time, which slice retirement already accounts.
        self._hb_slice: List[int] = bucket_array()
        self._slice_zeros = 0
        self._slice_memo_val = -1.0
        self._slice_memo_key = 0
        #: Off-CPU gap a thread crosses when it migrates
        #: ("migration_gap_seconds").
        self._hb_migration: List[int] = bucket_array()
        self._mig_zeros = 0
        self._mig_total = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def coalescing(self) -> bool:
        """Whether the quantum-coalescing fast path is enabled."""
        return self._coalesce

    def spawn(self, thread: SimThread) -> SimThread:
        """Register and start a thread."""
        if thread.state is not _NEW:
            raise SchedulingError(
                f"thread {thread.name!r} spawned twice")
        thread.spawn_time = self.sim.now
        self.threads.append(thread)
        if not thread.daemon:
            self._nondaemon_spawned += 1
            self._nondaemon_live += 1
        self._make_ready(thread)
        return thread

    def start(self, name: str,
              body: Generator[ins.Instruction, Any, Any],
              affinity=None, daemon: bool = False) -> SimThread:
        """Convenience: build a :class:`SimThread` and spawn it."""
        return self.spawn(SimThread(name, body, affinity=affinity,
                                    daemon=daemon))

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation.

        Stops when every non-daemon thread has terminated, when the
        simulated clock reaches ``until``, or — error case — when the
        event queue drains with non-daemon threads still blocked
        (:class:`DeadlockError`).
        Returns the simulated time at which execution stopped.
        """
        # This is the hot loop of every experiment: pop the next event
        # as one queue call, fire it, and re-check the cheap live-count
        # termination condition — no per-event scan of self.threads.
        sim = self.sim
        queue = sim._queue
        pop_before = queue.pop_before
        limit = _INF if until is None else until
        while True:
            if self._nondaemon_live == 0 and self._nondaemon_spawned:
                break
            item = pop_before(limit)
            if item is None:
                if queue.peek_time() is None:
                    if self._nondaemon_live:
                        blocked = [t.name for t in self.threads
                                   if not t.daemon and not t.terminated]
                        raise DeadlockError(
                            "simulation stalled with live threads: "
                            + ", ".join(blocked), blocked)
                    if until is not None and until > sim._now:
                        sim._now = until
                elif until > sim._now:
                    # Next event lies beyond the horizon.
                    sim._now = until
                break
            sim._now = item[0]
            sim._events_fired += 1
            item[1](*item[2])
        return sim._now

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def semaphore_release(self, semaphore) -> None:
        """Release a semaphore from driver (non-thread) context.

        Equivalent to a thread executing
        :class:`~repro.kernel.instructions.Release`; used by event-driven
        workload drivers (e.g. request generators) that are not
        themselves simulated threads.
        """
        if semaphore.waiters:
            self._wake_blocked(semaphore.waiters.popleft(), None)
        else:
            semaphore.permits += 1

    def run_metrics(self) -> RunMetrics:
        """Snapshot the always-on counters into a :class:`RunMetrics`.

        Safe to call mid-run: in-flight compute slices are folded in
        without touching kernel state.
        """
        return self.metrics.snapshot(self)

    def core_utilization(self) -> Dict[int, float]:
        """Busy fraction per core since time zero."""
        if self.sim.now <= 0:
            return {core.index: 0.0 for core in self.machine.cores}
        if self._macros:
            self._macro_catchup_all()
        return {core.index: core.busy_time / self.sim.now
                for core in self.machine.cores}

    # ------------------------------------------------------------------
    # Ready / dispatch machinery
    # ------------------------------------------------------------------
    def _make_ready(self, thread: SimThread) -> None:
        thread.state = _READY
        thread.block_reason = None
        thread.quantum_used = 0.0  # fresh timeslice after a wait
        now = self.sim._now
        thread.ready_at = now
        span = thread.block_span
        if span is not None:
            thread.block_span = None
            span.end(now)
        hint = thread.wake_core_hint
        if hint is not None:
            # One-shot critical-section migration (AsymMutex with
            # migrate=True): wake onto the hinted core, bypassing the
            # scheduler's placement policy — but only while the core
            # is still free; otherwise fall through to place().  The
            # hint is set immediately before the wake, so the re-check
            # is normally a formality.
            thread.wake_core_hint = None
            core = self.machine.cores[hint]
            if (not core.online or core.current_thread is not None
                    or self.runqueues[hint]
                    or not thread.allowed_on(hint)):
                core = self.scheduler.place(thread)
        else:
            core = self.scheduler.place(thread)
        index = core.index
        if not thread.allowed_on(index):
            raise SchedulingError(
                f"scheduler placed {thread.name!r} on forbidden core "
                f"{index}")
        # A contender restores the core's per-quantum preemption
        # points, so a coalesced core never holds a non-empty queue.
        if self._macros:
            self._macro_split(core)
        self.runqueues[index].append(thread)
        self._request_dispatch(core)

    def _request_dispatch(self, core: Core) -> None:
        index = core.index
        if (core.current_thread is not None or not core.online
                or self._dispatch_pending[index]):
            return
        self._dispatch_pending[index] = True
        # Dispatches stay in the default event group: at a shared
        # instant they fire in *request* order (a releaser waking two
        # threads dispatches them FIFO even across cores), yet still
        # after their own core's boundary when that boundary requested
        # them — the group only reorders events of different groups.
        self._queue.push_fast(self.sim._now, self._do_dispatch,
                              self._core_args[index])

    def _do_dispatch(self, core: Core) -> None:
        """Zero-delay dispatch event: run the policy's pick on an idle
        core."""
        index = core.index
        self._dispatch_pending[index] = False
        if core.current_thread is not None or not core.online:
            return
        thread = self.scheduler.next_thread(core)
        now = self.sim._now
        if thread is None:
            if "sched" in self._tracer_active:
                self._tracer.record(now, "sched", event="idle",
                                    core=index)
            return
        if thread.state is not _READY:
            raise SchedulingError(
                f"dispatching {thread.name!r} in state {thread.state}")
        last = thread.last_core
        if last is not None and last != index:
            thread.migrations += 1
            core.migrations_in += 1
            # Migration-gap histogram: off-CPU time the thread crosses
            # when it changes cores (inline; see repro.histogram).
            last_ran = thread.last_ran_at
            if last_ran is not None:
                gap = now - last_ran
                if gap > 0.0:
                    self._hb_migration[_frexp(gap)[1]
                                       + _HIST_OFFSET] += 1
                    self._mig_total += gap
                else:
                    self._mig_zeros += 1
        thread.last_core = index
        # Scheduling-latency histogram: ready-to-dispatch wait.  Most
        # dispatches fire from a zero-delay event, so the zero fast
        # path matters.
        wait = now - thread.ready_at
        if wait > 0.0:
            if wait != self._lat_memo_val:
                self._lat_memo_val = wait
                self._lat_memo_key = _frexp(wait)[1] + _HIST_OFFSET
            self._hb_latency[self._lat_memo_key] += 1
            core.lat_total += wait
        thread.state = _RUNNING
        core.current_thread = thread
        # Always-on dispatch counters: queue length is sampled at every
        # dispatch (after the dispatched thread left the queue).
        core.dispatches += 1
        queued = len(self.runqueues[index])
        if queued:
            core.rq_total += queued
            if queued > core.rq_max:
                core.rq_max = queued
        if "sched" in self._tracer_active:
            self._tracer.record(now, "sched", event="run",
                                thread=thread.name, core=index)
        self._process(thread, core)

    # ------------------------------------------------------------------
    # Instruction processing
    # ------------------------------------------------------------------
    def _process(self, thread: SimThread, core: Core) -> None:
        """Drive ``thread`` on ``core`` until it computes, blocks,
        deschedules or terminates."""
        body_send = thread.body.send
        handlers = self._handlers
        scheduler = self.scheduler
        quantum = scheduler.quantum
        for _ in range(_INSTANT_GUARD):
            if thread.spin_lock is not None:
                # Busy-waiting on a spin-kind mutex: the in-flight
                # instruction is the Lock, but remaining_cycles holds
                # the rest of the current spin burst.  A drained burst
                # re-checks the lock; otherwise (or when the check
                # fails and re-arms) the burst executes exactly like
                # compute — same quantum accounting, preemption and
                # slicing — so spinning costs real core time.
                if thread.remaining_cycles <= _CYCLE_EPSILON \
                        and self._spin_recheck(thread, core):
                    continue
            else:
                instruction = thread.current_instruction
                if instruction is None:
                    try:
                        instruction = body_send(thread.send_value)
                    except StopIteration as stop:
                        self._terminate(thread, core, stop.value)
                        return
                    thread.send_value = None
                    try:
                        execute = handlers[type(instruction)]
                    except KeyError:
                        execute = self._resolve(thread, instruction)
                    thread.current_instruction = instruction
                    if execute is None:
                        thread.remaining_cycles = instruction.cycles
                else:
                    execute = handlers[type(instruction)]
                if execute is not None:
                    if execute(thread, core, instruction):
                        # The thread left the core (blocked, slept,
                        # yielded or moved elsewhere).
                        core.current_thread = None
                        self._request_dispatch(core)
                        return
                    continue
                if thread.remaining_cycles <= _CYCLE_EPSILON:
                    self._complete_instruction(thread, None)
                    continue
            # Timeslice accounting spans instructions: a thread issuing
            # many short computes (or spin bursts) must still be
            # preempted at quantum granularity or it starves its
            # runqueue.
            if thread.quantum_used >= quantum:
                if scheduler.should_preempt(core, thread):
                    self._requeue(thread, core)
                    return
                thread.quantum_used = 0.0
            self._start_slice(thread, core)
            return
        raise SimulationError(
            f"thread {thread.name!r} executed {_INSTANT_GUARD} "
            "consecutive zero-time instructions (livelock?)")

    def _resolve(self, thread: SimThread,
                 instruction: Any) -> Optional[Callable[..., bool]]:
        """Table entry for a type not yet in it: the entry of its
        nearest base in the table, stored under the type itself."""
        for base in type(instruction).__mro__:
            if base in self._handlers:
                execute = self._handlers[base]
                self._handlers[type(instruction)] = execute
                return execute
        if isinstance(instruction, ins.Instruction):
            raise SimulationError(
                f"unknown instruction {instruction!r} from "
                f"{thread.name!r}")
        raise SimulationError(
            f"thread {thread.name!r} yielded {instruction!r}, "
            "not an Instruction")

    def _complete_instruction(self, thread: SimThread,
                              result: Any) -> None:
        """Mark the in-flight instruction done with ``result``."""
        thread.current_instruction = None
        thread.send_value = result
        thread.remaining_cycles = 0.0

    # ------------------------------------------------------------------
    # Compute slices
    # ------------------------------------------------------------------
    def _start_slice(self, thread: SimThread, core: Core) -> None:
        rate = core.rate
        index = core.index
        seconds_needed = thread.remaining_cycles / rate
        budget = self.scheduler.quantum - thread.quantum_used
        if budget < _MIN_SLICE:
            budget = _MIN_SLICE
        length = seconds_needed if seconds_needed < budget else budget
        if length < 0.0:
            raise SimulationError(f"cannot schedule in the past: {length}")
        now = self.sim._now
        end = now + length
        callback = self._on_slice_end
        # Spin bursts never coalesce: a macro would run the burst to
        # "completion" and complete the thread's in-flight Lock
        # instruction, but a drained burst must re-check the lock
        # instead.
        if (self._coalesce and seconds_needed > budget
                and thread.spin_lock is None
                and not self.runqueues[index]
                and self.scheduler.coalesce_safe):
            macro_end = self._macro_end(thread, core, length)
            if macro_end is not None:
                end = macro_end
                callback = self._on_macro_end
                self._macros[index] = core
                self.metrics.counters.incr("coalesce.macros_armed")
        # Close the idle gap since the last slice retired here (zero
        # when slices abut); idle is accumulated independently of busy
        # so their sum being the run duration is a real invariant.
        core.idle_seconds += now - core.idle_since
        span = self._tracer.span(now, "exec", thread.name,
                                 core=index, thread=thread.name) \
            if "exec" in self._tracer_active else None
        piece = self._spare[index]
        if piece is None:
            piece = _Slice(end, callback, self._core_args[index], thread,
                           now, rate, span)
        else:
            # Re-arm the core's fired slice; its args are the core's
            # tuple already.
            self._spare[index] = None
            piece.time = end
            piece.callback = callback
            piece.thread = thread
            piece.start = now
            piece.rate = rate
            piece.span = span
        self._slices[index] = piece
        self._queue.push_event(piece, index)

    # ------------------------------------------------------------------
    # Quantum coalescing (macro slices, DESIGN.md §9)
    # ------------------------------------------------------------------
    # A lone compute-bound thread on an uncontended core pays one
    # _on_slice_end event per scheduler quantum even though every
    # boundary is a no-op (empty runqueue => retire, reset the quantum,
    # restart in place).  When the preconditions hold — coalescing on,
    # a multi-quantum instruction, an empty runqueue, and a scheduler
    # that promises not to preempt spontaneously — the kernel instead
    # replays the per-quantum float arithmetic in closed form and, if
    # the instruction COMPLETES strictly before any other pending
    # event ("the cap"), _start_slice arms ONE macro slice that ends
    # at the completion time.  Because the macro window ends strictly
    # below the cap, no foreign event can observe the core mid-window
    # without first passing through one of the re-split hooks below,
    # which materialize ("catch up") the skipped boundaries into the
    # exact counters, histograms and spans the sliced kernel would
    # have written.
    #
    # Why completion-only?  A partial window (macro cut short by the
    # cap) would end ON the shared quantum grid and still need a real
    # boundary event there — no event saved — while a completing
    # window replaces the whole per-quantum tail with one event.  The
    # engine's core-group ordering (repro.sim.events) guarantees the
    # macro event fires at its timestamp exactly where the sliced
    # boundary chain would have, even though it was scheduled long ago
    # with a stale sequence number.
    def _macro_end(self, thread: SimThread, core: Core,
                   first_length: float) -> Optional[float]:
        """When a macro slice on ``core`` would complete ``thread``'s
        instruction, or None when the upcoming quantum boundaries
        cannot coalesce and the caller arms a per-quantum slice."""
        now = self.sim._now
        cap = self.sim.horizon(self._slice_callbacks)
        if now + first_length >= cap:
            return None
        # Closed-form replay of the sliced kernel's quantum loop —
        # float-for-float the same operations _retire_slice and
        # _start_slice perform — to find the last boundary before the
        # cap, and whether the instruction completes inside the window.
        quantum = self.scheduler.quantum
        rate = core.rate
        t = now
        remaining = thread.remaining_cycles
        length = first_length
        end = now
        boundaries = 0
        complete = False
        while True:
            t_end = t + length
            if t_end >= cap:
                break
            remaining -= (t_end - t) * rate
            if remaining < 0.0:
                remaining = 0.0
            end = t_end
            boundaries += 1
            if remaining <= _CYCLE_EPSILON:
                complete = True
                break
            # Quantum boundary with an empty runqueue: quantum_used
            # resets to zero, so the next budget is the full quantum.
            t = t_end
            budget = quantum if quantum > _MIN_SLICE else _MIN_SLICE
            needed = remaining / rate
            length = needed if needed < budget else budget
        if not complete:
            # The cap cuts the window short: the final boundary would
            # land on the shared quantum grid, where the macro event's
            # arm-time seq would fire out of order among same-time
            # boundary events (see the block comment above).
            return None
        if boundaries == 0:  # pragma: no cover - caller guarantees
            return None      # seconds_needed > budget, so >= 1 boundary
        if end < now:  # pragma: no cover - the replay only moves forward
            raise SimulationError(
                f"cannot schedule at {end}, current time is {now}")
        return end

    def _on_macro_end(self, core: Core) -> None:
        self._sweep_time = self.sim._now
        self._sweep_group = core.index
        del self._macros[core.index]
        piece = self._slices[core.index]
        thread = piece.thread
        completed = self._macro_catchup(core, self.sim._now,
                                        inclusive=True,
                                        allow_complete=True)
        if completed:
            self._spare[core.index] = piece
            self.metrics.counters.incr("coalesce.macros_completed")
            self._complete_instruction(thread, None)
            self._process(thread, core)
            return
        # Defensive fallback: _macro_end only admits windows that run
        # to completion, and the catch-up replays the same float
        # arithmetic, so this branch is unreachable unless the two
        # ever disagree — in which case degrade to a real slice event
        # rather than stall the core, and say so in the counters
        # (tests pin coalesce.macro_fallback == 0 on the standard
        # configurations; a nonzero count means the closed forms and
        # the sliced loop have drifted apart).
        self.metrics.counters.incr(
            "coalesce.macro_fallback")  # pragma: no cover
        self._rearm_slice(core, piece)  # pragma: no cover

    def _macro_catchup(self, core: Core, limit: float, inclusive: bool,
                       allow_complete: bool) -> bool:
        """Materialize a live macro slice's synthetic boundaries.

        Books every skipped quantum boundary up to ``limit`` (strictly
        before it unless ``inclusive``) into the same counters,
        histograms and exec spans — the same floats in the same order —
        the sliced kernel would have written, leaving the open slice
        anchored at the last booked boundary.  Returns True when the
        final, instruction-completing boundary was booked (only
        possible for the macro's own end event, which passes
        ``allow_complete``); the slice record is popped in that case
        and the caller completes the instruction.

        The thread's and core's running sums and the slice-length
        memo live in locals and are stored once after the loop; each
        sum receives the same float additions, in the same order, as
        the per-boundary writes of ``_retire_slice``.
        """
        index = core.index
        piece = self._slices[index]
        thread = piece.thread
        rate = piece.rate
        quantum = self.scheduler.quantum
        t = piece.start
        remaining = thread.remaining_cycles
        used = thread.quantum_used
        # .get, not [], on the defaultdicts: an unbooked catch-up must
        # not create a per-core entry the sliced kernel never wrote.
        core_seconds = thread.core_seconds.get(index, 0.0)
        core_cycles = thread.core_cycles.get(index, 0.0)
        busy_time = core.busy_time
        busy_cycles = core.busy_cycles
        hb_slice = self._hb_slice
        memo_val = self._slice_memo_val
        memo_key = self._slice_memo_key
        span = piece.span
        tracing = "exec" in self._tracer_active
        booked = False
        completed = False
        while True:
            needed = remaining / rate
            budget = quantum - used
            if budget < _MIN_SLICE:
                budget = _MIN_SLICE
            length = needed if needed < budget else budget
            t_end = t + length
            if t_end > limit or (t_end == limit and not inclusive):
                break
            elapsed = t_end - t
            cycles = elapsed * rate
            after = remaining - cycles
            if after < 0.0:
                after = 0.0
            completing = after <= _CYCLE_EPSILON
            if completing and not allow_complete:
                break
            # Book the boundary exactly as _retire_slice would have.
            remaining = after
            core_seconds += elapsed
            core_cycles += cycles
            used += elapsed
            busy_time += elapsed
            busy_cycles += cycles
            if span is not None:
                span.end(t_end)
            if elapsed > 0.0:
                if elapsed != memo_val:
                    memo_val = elapsed
                    memo_key = _frexp(elapsed)[1] + _HIST_OFFSET
                hb_slice[memo_key] += 1
            else:
                self._slice_zeros += 1
            booked = True
            t = t_end
            if completing:
                completed = True
                break
            # Quantum expiry with an empty runqueue: the sliced kernel
            # resets the quantum and restarts the slice in place.
            used = 0.0
            span = self._tracer.span(
                t_end, "exec", thread.name, core=index,
                thread=thread.name) if tracing else None
        if booked:
            thread.remaining_cycles = remaining
            thread.quantum_used = used
            thread.last_ran_at = t
            thread.core_seconds[index] = core_seconds
            thread.core_cycles[index] = core_cycles
            core.busy_time = busy_time
            core.busy_cycles = busy_cycles
            core.idle_since = t
            self._slice_memo_val = memo_val
            self._slice_memo_key = memo_key
            piece.start = t
            piece.span = span
        if completed:
            del self._slices[index]
        return completed

    def _macro_catchup_all(self) -> None:
        """Bring every coalesced core's books up to the current clock.

        Observation entry point (metrics snapshots, trace export, core
        utilization).  Idempotent; boundaries exactly at ``now`` are
        included because a paused run (``run(until=...)``) has already
        fired every event at ``now`` — a sliced kernel would have
        retired those boundaries too.
        """
        now = self.sim._now
        for core in self._macros.values():
            self._macro_catchup(core, now, inclusive=True,
                                allow_complete=False)

    def _macro_dissolve(self, core: Core, outcome: str) -> bool:
        """Book a live macro slice's boundaries strictly before ``now``
        and drop the macro, counting ``outcome``; False (and no side
        effects) when ``core`` runs no macro.

        A boundary landing exactly at ``now`` belongs to the window iff
        this core's position in the engine's same-instant group sweep
        has already passed — its event would have fired by now under
        sliced execution (see _sweep_time).
        """
        if self._macros.pop(core.index, None) is None:
            return False
        now = self.sim._now
        inclusive = (self._sweep_time == now
                     and self._sweep_group > core.index)
        self.metrics.counters.incr(outcome)
        self._macro_catchup(core, now, inclusive=inclusive,
                            allow_complete=False)
        return True

    def _macro_split(self, core: Core) -> None:
        """A thread landed on a coalesced core's runqueue: restore the
        scheduler's per-quantum preemption points.

        Books boundaries strictly before ``now`` and replaces the macro
        event with a real slice event at the next boundary (which may
        be ``now`` itself: a wakeup landing exactly on a boundary float
        still sees that boundary's slice event pending, as it would
        under sliced execution).
        """
        if not self._macro_dissolve(core, "coalesce.macros_split"):
            return
        piece = self._slices[core.index]
        self.sim.cancel(piece)
        self._rearm_slice(core, piece)

    def _rearm_slice(self, core: Core, piece: _Slice) -> None:
        """Replace ``piece`` (cancelled or already fired) with a real
        slice event at the end of its in-flight quantum."""
        thread = piece.thread
        needed = thread.remaining_cycles / piece.rate
        budget = max(self.scheduler.quantum - thread.quantum_used,
                     _MIN_SLICE)
        length = needed if needed < budget else budget
        end = piece.start + length
        now = self.sim._now
        if end < now:
            raise SimulationError(
                f"cannot schedule at {end}, current time is {now}")
        index = core.index
        fresh = _Slice(end, self._on_slice_end, self._core_args[index],
                       thread, piece.start, piece.rate, piece.span)
        self._slices[index] = fresh
        self._queue.push_event(fresh, index)

    def _requeue(self, thread: SimThread, core: Core) -> None:
        """Put the running thread at the back of its core's queue."""
        thread.quantum_used = 0.0
        self.runqueues[core.index].append(thread)
        self._deschedule(thread, core, "preempt")

    def _deschedule(self, thread: SimThread, core: Core, event: str,
                    **details: Any) -> None:
        """Book an involuntary deschedule of ``thread`` from ``core``:
        the thread turns READY, the ``sched`` trace records ``event``
        (with ``details``), and the core is re-dispatched."""
        now = self.sim._now
        thread.preemptions += 1
        core.preemptions += 1
        thread.state = _READY
        thread.ready_at = now
        core.current_thread = None
        if "sched" in self._tracer_active:
            self._tracer.record(now, "sched", event=event,
                                thread=thread.name, core=core.index,
                                **details)
        self._request_dispatch(core)

    def _take_slice(self, core: Core) -> Optional[SimThread]:
        """Take the running compute slice off ``core`` and return its
        thread, or None when the core is idle.

        Every external interruption (pull preemption, reprogramming,
        hot-unplug, stall) goes through here: a live macro slice first
        books its boundaries strictly before ``now`` and dissolves,
        then the slice is cancelled and retired, so the interruption
        lands on the identical cycle sliced execution would have.
        """
        if core.current_thread is None:
            return None
        if self._macros:
            self._macro_dissolve(core, "coalesce.macros_absorbed")
        piece = self._slices.pop(core.index, None)
        if piece is None:  # pragma: no cover - invariant guard
            # Instant instructions never leave kernel context, so a
            # busy core between events always runs a slice.
            raise SchedulingError(
                f"core {core.index} busy without a compute slice")
        self.sim.cancel(piece)
        return self._retire_slice(core, piece)

    def _retire_slice(self, core: Core, piece: _Slice) -> SimThread:
        """Account for the (possibly partial) slice ``piece``, just
        taken off ``core``'s ``_slices`` entry."""
        index = core.index
        now = self.sim._now
        elapsed = now - piece.start
        cycles = elapsed * piece.rate
        thread = piece.thread
        remaining = thread.remaining_cycles - cycles
        thread.remaining_cycles = remaining if remaining > 0.0 else 0.0
        thread.core_seconds[index] += elapsed
        thread.core_cycles[index] += cycles
        thread.last_ran_at = now
        thread.quantum_used += elapsed
        core.busy_time += elapsed
        core.busy_cycles += cycles
        core.idle_since = now
        if thread.spin_lock is not None and cycles > 0.0:
            # Busy-wait cycles are booked as busy time above; tag them
            # so the waste is visible (and bounded by the spin ⊆ busy
            # conservation invariant in repro.metrics).
            self.metrics.counters.incr("lock.spin_cycles", cycles)
        if piece.span is not None:
            piece.span.end(now)
        # Slice-duration histogram (inline; see repro.histogram).
        if elapsed > 0.0:
            if elapsed != self._slice_memo_val:
                self._slice_memo_val = elapsed
                self._slice_memo_key = _frexp(elapsed)[1] + _HIST_OFFSET
            self._hb_slice[self._slice_memo_key] += 1
        else:
            self._slice_zeros += 1
        return thread

    def _on_slice_end(self, core: Core) -> None:
        now = self.sim._now
        index = core.index
        self._sweep_time = now
        self._sweep_group = index
        piece = self._slices.pop(index)
        thread = self._retire_slice(core, piece)
        if thread.remaining_cycles <= _CYCLE_EPSILON:
            # A drained spin burst is not a completed instruction: it
            # re-checks the lock.  With quantum left, a failed check
            # re-arms this slice for the next burst here, to the float
            # _start_slice would give it: spin bursts never coalesce,
            # the idle gap is zero (_retire_slice set idle_since to
            # now), and a fired slice runs at its core's current rate
            # (every rate change cancels the slice first).
            if thread.spin_lock is None:
                self._complete_instruction(thread, None)
            elif (thread.quantum_used < self.scheduler.quantum
                    and not self._spin_recheck(thread, core)):
                needed = thread.remaining_cycles / piece.rate
                budget = self.scheduler.quantum - thread.quantum_used
                if budget < _MIN_SLICE:
                    budget = _MIN_SLICE
                piece.time = now + (needed if needed < budget else budget)
                piece.start = now
                piece.span = self._tracer.span(
                    now, "exec", thread.name, core=index,
                    thread=thread.name) \
                    if "exec" in self._tracer_active else None
                self._slices[index] = piece
                self._queue.push_event(piece, index)
                return
            self._spare[index] = piece
            self._process(thread, core)
            return
        self._spare[index] = piece
        # Quantum expired mid-instruction.
        if self.scheduler.should_preempt(core, thread):
            self._requeue(thread, core)
        else:
            thread.quantum_used = 0.0
            self._start_slice(thread, core)

    def preempt_current(self, core: Core) -> SimThread:
        """Forcibly deschedule the thread running on ``core``.

        Used by the asymmetry-aware scheduler's pull migration.  The
        partial slice is accounted, the thread is returned READY (not
        enqueued anywhere), and the victim core is re-dispatched.
        """
        thread = self._take_slice(core)
        if thread is None:
            raise SchedulingError(
                f"preempt_current on idle core {core.index}")
        self.preempt_pulls += 1
        self._deschedule(thread, core, "pull")
        return thread

    # ------------------------------------------------------------------
    # Dynamic asymmetry (fault injection entry points)
    # ------------------------------------------------------------------
    def reprogram_core(self, core: Core, duty_cycle: float) -> float:
        """Reprogram a core's duty cycle mid-run; returns the snapped
        value.

        The heart of dynamic asymmetry: any in-flight compute slice is
        re-split — the partial slice retires at the *old* rate, the
        modulation register switches, and the remainder of the
        instruction resumes at the new rate — so cycle accounting stays
        exact across the speed step.  The per-duty time-at-speed books
        on the core are closed out at the same instant.
        """
        thread = self._take_slice(core)
        core.record_speed_change(self.sim.now)
        snapped = core.set_duty_cycle(duty_cycle)
        if thread is not None:
            # A drained instruction completes, a drained spin burst
            # re-checks its lock, an expired quantum may preempt, and
            # anything else resumes at the new rate.
            self._process(thread, core)
        return snapped

    def set_core_offline(self, core: Core) -> None:
        """Hot-unplug ``core``: migrate its work off, stop scheduling.

        The running thread (if any) is preempted mid-slice and
        re-placed through the scheduler, then the core's entire run
        queue is drained the same way.  Idempotent.  Refuses to strand
        the machine: the last online core cannot go offline.
        """
        if not core.online:
            return
        if not any(c.online for c in self.machine.cores if c is not core):
            raise SchedulingError(
                f"cannot take core {core.index} offline: it is the "
                "last online core")
        core.online = False
        thread = self._take_slice(core)
        if thread is not None:
            self.metrics.counters.incr("faults.offline_migrations")
            self._deschedule(thread, core, "preempt", reason="offline")
            self._make_ready(thread)
        queue = self.runqueues[core.index]
        while queue:
            self.metrics.counters.incr("faults.offline_migrations")
            self._make_ready(queue.popleft())

    def set_core_online(self, core: Core) -> None:
        """Bring a hot-unplugged core back; it may steal work at once.

        Idempotent — onlining an online core is a no-op.
        """
        if core.online:
            return
        core.online = True
        self._request_dispatch(core)

    def stall_current(self, core: Core, seconds: float) -> bool:
        """Block the thread running on ``core`` for ``seconds``.

        Models an I/O hiccup: the partial compute slice retires, the
        thread blocks (its in-flight instruction is preserved), and
        after the stall window it becomes ready again and resumes the
        remaining cycles wherever the scheduler places it.  Returns
        False without side effects when the core runs no thread.
        """
        if seconds <= 0:
            raise SimulationError(
                f"stall duration must be positive, got {seconds}")
        thread = self._take_slice(core)
        if thread is None:
            return False
        core.current_thread = None
        self._block(thread, "fault.stall")
        self.sim.schedule_fast(seconds, self._resume_stalled, thread)
        self._request_dispatch(core)
        return True

    def _resume_stalled(self, thread: SimThread) -> None:
        """End a fault stall: requeue without completing the in-flight
        instruction (its remaining cycles resume on dispatch)."""
        self._make_ready(thread)

    # ------------------------------------------------------------------
    # Blocking and waking
    # ------------------------------------------------------------------
    def _block(self, thread: SimThread, reason: str,
               **details: Any) -> None:
        """Park ``thread``; extra ``details`` annotate the block span
        (lock waits pass the holder and its speed class)."""
        thread.state = _BLOCKED
        thread.block_reason = reason
        active = self._tracer_active
        if "sched" in active:
            self._tracer.record(self.sim._now, "sched", event="block",
                                thread=thread.name, reason=reason)
        if "block" in active:
            thread.block_span = self._tracer.span(
                self.sim._now, "block", reason, thread=thread.name,
                **details)

    def _wake_blocked(self, thread: SimThread, result: Any = None) -> None:
        """Complete a blocked thread's instruction and make it ready."""
        self._complete_instruction(thread, result)
        self._make_ready(thread)

    def _wake_sleeper(self, thread: SimThread) -> None:
        self._wake_blocked(thread, None)

    # ------------------------------------------------------------------
    # Instantaneous instructions
    # ------------------------------------------------------------------
    # Each handler executes one zero-time instruction and returns True
    # when the thread left the core (blocked, slept, yielded, moved
    # elsewhere), False when it completed the instruction and keeps
    # running.  ``Kernel._handlers`` maps instruction types to them.
    def _do_sleep(self, thread: SimThread, core: Core,
                  instruction: ins.Sleep) -> bool:
        thread.state = _SLEEPING
        thread.block_reason = "sleep"
        if "block" in self._tracer_active:
            thread.block_span = self._tracer.span(
                self.sim._now, "block", "sleep", thread=thread.name)
        # Sleep rejects negative and NaN seconds, so the wake goes
        # straight onto the queue, at the time schedule_fast computes.
        self._queue.push_fast(self.sim._now + instruction.seconds,
                              self._wake_sleeper, (thread,))
        return True

    def _do_acquire(self, thread: SimThread, core: Core,
                    instruction: ins.Acquire) -> bool:
        semaphore = instruction.semaphore
        if semaphore.permits > 0:
            semaphore.permits -= 1
            self._complete_instruction(thread, None)
            return False
        if not semaphore.name:
            self._name_sync(semaphore)
        semaphore.waiters.append(thread)
        self._block(thread, semaphore.wait_label)
        return True

    def _do_release(self, thread: SimThread, core: Core,
                    instruction: ins.Release) -> bool:
        self.semaphore_release(instruction.semaphore)
        self._complete_instruction(thread, None)
        return False

    def _do_spawn(self, thread: SimThread, core: Core,
                  instruction: ins.Spawn) -> bool:
        instruction.thread.spawn_core_hint = core.index
        self.spawn(instruction.thread)
        self._complete_instruction(thread, instruction.thread)
        return False

    def _do_join(self, thread: SimThread, core: Core,
                 instruction: ins.Join) -> bool:
        target = instruction.thread
        if target.terminated:
            self._complete_instruction(thread, target.return_value)
            return False
        target.joiners.append(thread)
        self._block(thread, f"join {target.name}")
        return True

    def _do_yield(self, thread: SimThread, core: Core,
                  instruction: ins.YieldCPU) -> bool:
        self._complete_instruction(thread, None)
        thread.state = _READY
        thread.ready_at = self.sim._now
        self.runqueues[core.index].append(thread)
        return True

    def _do_set_affinity(self, thread: SimThread, core: Core,
                         instruction: ins.SetAffinity) -> bool:
        thread.affinity = instruction.cores
        self._complete_instruction(thread, None)
        if not thread.allowed_on(core.index):
            # Running on a now-forbidden core: move immediately.
            thread.state = _READY
            self._make_ready(thread)
            return True
        return False

    def _do_get_time(self, thread: SimThread, core: Core,
                     instruction: ins.GetTime) -> bool:
        self._complete_instruction(thread, self.sim.now)
        return False

    def _do_get_core(self, thread: SimThread, core: Core,
                     instruction: ins.GetCore) -> bool:
        self._complete_instruction(thread, core.index)
        return False

    # ------------------------------------------------------------------
    # Locking (the LibASL primitive layer, DESIGN.md §11)
    # ------------------------------------------------------------------
    def _name_sync(self, obj) -> None:
        """Assign a kernel-scoped auto-name to an anonymous sync
        object (``mutex-1``, ``barrier-1``, ... in simulation order)."""
        prefix = obj._auto_prefix
        count = self._sync_names.get(prefix, 0) + 1
        self._sync_names[prefix] = count
        obj.name = f"{prefix}-{count}"

    def _speed_class(self, core_index: int) -> str:
        """The core's *current* speed class — a throttled fast core
        counts as slow, which is exactly the case the asymmetry-aware
        handoff exists for."""
        machine = self.machine
        return "fast" if machine.is_fast(machine.cores[core_index]) \
            else "slow"

    def _grant_lock(self, mutex, thread: SimThread,
                    core: Optional[Core] = None) -> None:
        """Make ``thread`` the owner of ``mutex``; book the acquisition
        and, for spin kinds, the pending handoff to the acquirer's
        ``core``."""
        mutex.owner = thread
        mutex.acquisitions += 1
        counters = self.metrics.counters
        counters.incr("lock.acquisitions")
        if mutex.spins and mutex.release_class is not None:
            # The release happened earlier (spinners notice it at a
            # burst boundary); attribute the handoff pair now that the
            # acquiring core is known.
            counters.incr(f"lock.handoffs.{mutex.release_class}"
                          f"_to_{self._speed_class(core.index)}")
            mutex.release_class = None

    def _spin_recheck(self, thread: SimThread, core: Core) -> bool:
        """A spin burst drained: try to take the lock, else re-arm.

        Returns True when the lock was acquired (the thread's Lock
        instruction completes); False when the thread must keep
        spinning.  MCS-kind locks only grant to the queue head, which
        makes handoff FIFO even though the waiting burns cycles.
        """
        mutex = thread.spin_lock
        if mutex.owner is None and (mutex.kind != "mcs"
                                    or mutex.waiters[0] is thread):
            mutex.waiters.remove(thread)
            thread.spin_lock = None
            self._grant_lock(mutex, thread, core)
            self._complete_instruction(thread, None)
            return True
        thread.remaining_cycles = mutex.spin_check_cycles
        return False

    def _do_lock(self, thread: SimThread, core: Core,
                 instruction: ins.Lock) -> bool:
        mutex = instruction.mutex
        if not mutex.name:
            self._name_sync(mutex)
        owner = mutex.owner
        if owner is None and not (mutex.spins and mutex.waiters
                                  and mutex.kind == "mcs"):
            # Uncontended (or, for plain spin locks, barging past
            # spinners still mid-burst — test-and-set semantics).
            self._grant_lock(mutex, thread, core)
            self._complete_instruction(thread, None)
            return False
        if owner is thread:
            raise SchedulingError(
                f"thread {thread.name!r} re-locking non-reentrant "
                f"{mutex.name}")
        self._queue_waiter(mutex, thread)
        if mutex.spins:
            # Busy-wait: keep the core and burn spin_check_cycles per
            # lock re-check (see _process's spin branch).
            thread.spin_lock = mutex
            thread.remaining_cycles = mutex.spin_check_cycles
            return False
        if "block" in self._tracer_active and owner.last_core is not None:
            self._block(thread, mutex.wait_label, holder=owner.name,
                        holder_class=self._speed_class(owner.last_core))
        else:
            self._block(thread, mutex.wait_label)
        return True

    def _queue_waiter(self, mutex, thread: SimThread) -> None:
        """Queue ``thread`` on the held ``mutex``; book the
        contention."""
        waiters = mutex.waiters
        waiters.append(thread)
        mutex.contention_count += 1
        depth = len(waiters)
        if depth > mutex.max_queue_depth:
            mutex.max_queue_depth = depth
        counters = self.metrics.counters
        counters.incr("lock.contended")
        counters.set_max("lock.max_queue_depth", float(depth))

    def _pick_successor(self, mutex) -> SimThread:
        """Pop the waiter the lock's handoff policy selects next.

        FIFO kinds pop the head.  The asymmetry-aware kind prefers (1)
        any waiter whose bypass count hit the fairness cap, then (2)
        the first waiter last seen on a fast core, then (3) the head;
        every waiter skipped over gets its bypass count bumped.
        """
        waiters = mutex.waiters
        if mutex.kind != "asym" or len(waiters) == 1:
            return waiters.popleft()
        pick = -1
        for index, waiter in enumerate(waiters):
            if waiter.lock_bypasses >= mutex.max_bypass:
                pick = index
                break
        if pick < 0:
            for index, waiter in enumerate(waiters):
                last = waiter.last_core
                if last is not None \
                        and self._speed_class(last) == "fast":
                    pick = index
                    break
            else:
                pick = 0
        if pick == 0:
            return waiters.popleft()
        successor = waiters[pick]
        del waiters[pick]
        for index in range(pick):
            waiters[index].lock_bypasses += 1
        return successor

    def _idle_fast_core(self, thread: SimThread) -> Optional[Core]:
        """Lowest-indexed idle full-speed core that may run ``thread``
        (empty queue, nothing running), or None."""
        machine = self.machine
        for candidate in machine.cores:
            if (candidate.online and candidate.current_thread is None
                    and not self.runqueues[candidate.index]
                    and thread.allowed_on(candidate.index)
                    and machine.is_fast(candidate)):
                return candidate
        return None

    def _do_unlock(self, thread: SimThread, core: Core,
                   instruction: ins.Unlock) -> bool:
        self._release_mutex(thread, core, instruction.mutex)
        self._complete_instruction(thread, None)
        return False

    def _release_mutex(self, thread: SimThread, core: Core,
                       mutex) -> None:
        """Give up ``mutex``: hand it to the successor its policy
        picks, or leave it free."""
        if not mutex.name:
            self._name_sync(mutex)
        if mutex.owner is not thread:
            raise SchedulingError(
                f"thread {thread.name!r} unlocking {mutex.name} owned "
                f"by {mutex.owner.name if mutex.owner else None}")
        if mutex.spins:
            # Spinners notice the release at their next burst
            # boundary; remember the releasing core's class so the
            # eventual grant books the handoff pair.
            mutex.owner = None
            if mutex.waiters:
                mutex.release_class = self._speed_class(core.index)
            return
        if not mutex.waiters:
            mutex.owner = None
            return
        successor = self._pick_successor(mutex)
        successor.lock_bypasses = 0
        self._grant_lock(mutex, successor)
        counters = self.metrics.counters
        to_core = successor.last_core
        to_class = self._speed_class(to_core) if to_core is not None \
            else "slow"
        counters.incr(f"lock.handoffs."
                      f"{self._speed_class(core.index)}_to_{to_class}")
        if mutex.kind == "asym" and mutex.migrate \
                and to_class != "fast":
            target = self._idle_fast_core(successor)
            if target is not None:
                # Critical-section migration: wake the successor on an
                # idle fast core so the serial section runs at full
                # speed (consumed by _make_ready).
                successor.wake_core_hint = target.index
                counters.incr("lock.crit_migrations")
        self._wake_blocked(successor, None)

    def _do_barrier(self, thread: SimThread, core: Core,
                    instruction: ins.BarrierWait) -> bool:
        barrier = instruction.barrier
        if barrier.n_waiting + 1 >= barrier.parties:
            # Last arrival trips the barrier: release everyone.
            barrier.generation += 1
            waiters = list(barrier.waiting)
            barrier.waiting.clear()
            for waiter in waiters:
                self._wake_blocked(waiter, barrier.generation)
            self._complete_instruction(thread, barrier.generation)
            return False
        if not barrier.name:
            self._name_sync(barrier)
        barrier.waiting.append(thread)
        self._block(thread, barrier.wait_label)
        return True

    def _do_cond_wait(self, thread: SimThread, core: Core,
                      instruction: ins.Wait) -> bool:
        mutex = instruction.mutex
        if mutex.spins:
            raise SchedulingError(
                f"condition variables need a blocking mutex; "
                f"{mutex.name or 'anonymous'} is kind {mutex.kind!r}")
        condvar = instruction.condvar
        if not condvar.name:
            self._name_sync(condvar)
        self._release_mutex(thread, core, mutex)
        condvar.waiters.append(thread)
        self._block(thread, condvar.wait_label)
        return True

    def _do_notify(self, thread: SimThread, core: Core,
                   instruction: ins.Notify) -> bool:
        condvar = instruction.condvar
        count = instruction.count
        if count is None:
            count = len(condvar.waiters)
        for _ in range(min(count, len(condvar.waiters))):
            waiter = condvar.waiters.popleft()
            # The waiter must re-acquire the mutex named in its Wait
            # instruction before its Wait completes.
            mutex = waiter.current_instruction.mutex
            if mutex.owner is None:
                self._grant_lock(mutex, waiter)
                self._wake_blocked(waiter, None)
            else:
                self._queue_waiter(mutex, waiter)
                waiter.block_reason = f"relock {mutex.name}"
        self._complete_instruction(thread, None)
        return False

    # ------------------------------------------------------------------
    def _terminate(self, thread: SimThread, core: Core,
                   value: Any) -> None:
        thread.state = _TERMINATED
        thread.finish_time = self.sim.now
        thread.return_value = value
        thread.current_instruction = None
        core.current_thread = None
        if not thread.daemon:
            self._nondaemon_live -= 1
        tracer = self.sim.tracer
        if "sched" in tracer.active:
            tracer.record(self.sim.now, "sched", event="exit",
                          thread=thread.name, core=core.index)
        joiners = thread.joiners
        thread.joiners = []
        for joiner in joiners:
            self._wake_blocked(joiner, value)
        self._request_dispatch(core)
