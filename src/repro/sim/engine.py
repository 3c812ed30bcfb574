"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock and the event queue.  All
higher layers (machine, kernel, runtimes, workloads) advance time only
by scheduling events here — nothing in the library ever consults wall
clock time, which is what makes every experiment exactly reproducible
from its seed.

The run loop is the single hottest path in the repository (a full
figure regeneration fires tens of millions of events), so it pops
``(time, callback, args)`` tuples straight off the queue via
:meth:`~repro.sim.events.EventQueue.pop_before` — one method call per
event — instead of the peek/step/pop dance.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStream, StreamRegistry
from repro.sim.trace import Tracer

_INF = float("inf")


class Simulator:
    """Virtual clock plus deterministic event queue.

    Parameters
    ----------
    seed:
        Master seed for all random streams used during this simulation.
    trace:
        Trace categories enabled from the start (a run's
        ``RunOptions.trace``); None or empty traces nothing.
    """

    def __init__(self, seed: int = 0,
                 trace: Optional[Iterable[str]] = None) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._streams = StreamRegistry(seed)
        self.tracer = Tracer()
        if trace:
            self.tracer.enable(*trace)
        self._events_fired = 0
        self._running = False

    # ------------------------------------------------------------------
    # Clock and randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (a progress measure)."""
        return self._events_fired

    def stream(self, name: str) -> RandomStream:
        """Named random stream (see :mod:`repro.sim.rng`)."""
        return self._streams.stream(name)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, group: int = -1) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        Returns a cancellable :class:`Event` handle; use
        :meth:`schedule_fast` when the event will never be cancelled.
        ``group`` orders simultaneous events ahead of scheduling order
        (the kernel tags core-bound events with the core index; see
        :mod:`repro.sim.events`).
        """
        if delay < 0.0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self._queue.push(self._now + delay, callback, args, group)

    def schedule_fast(self, delay: float, callback: Callable[..., Any],
                      *args: Any, group: int = -1) -> None:
        """Like :meth:`schedule` but uncancellable and allocation-free.

        The hot-path variant for the vast majority of events (kernel
        dispatches, sleep timers, driver ticks) that are fired exactly
        once and never cancelled.
        """
        if delay < 0.0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._queue.push_fast(self._now + delay, callback, args, group)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, group: int = -1) -> Event:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}")
        return self._queue.push(time, callback, args, group)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event returned by :meth:`schedule`."""
        self._queue.cancel(event)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        return self._queue.peek_time()

    def horizon(self, skip_callbacks: tuple = ()) -> float:
        """Time of the next live event, or +inf when none is pending.

        ``skip_callbacks`` is forwarded to
        :meth:`~repro.sim.events.EventQueue.horizon`; the kernel uses
        it to look past its own compute-slice events when sizing a
        coalesced macro slice.
        """
        return self._queue.horizon(skip_callbacks)

    def advance_to(self, time: float) -> None:
        """Move the clock forward without executing events.

        Only legal up to (and including) the next pending event's time;
        used by drivers that stop a run at a measurement boundary.
        """
        if time < self._now:
            raise SimulationError("cannot advance the clock backwards")
        next_time = self._queue.peek_time()
        if next_time is not None and next_time < time:
            raise SimulationError(
                "cannot advance past a pending event")
        self._now = time

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        Returns the simulated time at which execution stopped.  When
        ``until`` is given and the queue drains earlier, the clock is
        advanced to ``until`` so that periodic measurements line up.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        # Hot loop: hoist everything invariant out of the per-event
        # path; pop_before does peek + cancelled-skip + pop in one call.
        pop_before = self._queue.pop_before
        limit = _INF if until is None else until
        budget = -1 if max_events is None else max_events
        fired = 0
        try:
            while fired != budget:
                item = pop_before(limit)
                if item is None:
                    break
                self._now = item[0]
                self._events_fired += 1
                fired += 1
                item[1](*item[2])
            if fired != budget and until is not None \
                    and until > self._now:
                # Loop ended because the queue drained or the next
                # event lies beyond the horizon — line the clock up
                # with the measurement boundary.
                self._now = until
        finally:
            self._running = False
        return self._now
