"""The seed commit's event queue and run loop, as a timing reference.

``test_event_queue_throughput`` times today's :class:`repro.sim.Simulator`
against this code in the same process, round by round, so its seed
speedup compares two programs on one host instead of one program
against a wall time taken on another.  The classes are the
seed's ``repro/sim/events.py`` and ``repro/sim/engine.py`` (commit
2eff73a), trimmed to what the benchmark's 5000-event schedule-and-fire
loop calls: ``Simulator()``, ``schedule``, ``run`` and
``events_fired``.  Every method that loop calls keeps the seed's body,
except that the constructor no longer builds the random-stream registry
and the tracer, which the loop never uses; that makes the reference a
little faster than the seed, so the gate errs on the strict side.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Event:
    """A scheduled callback (the seed's heap entry)."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 queue: "EventQueue") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._live = 0

    def push(self, time: float, callback: Callable[..., Any],
             args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if time != time:  # NaN guard: a NaN time would corrupt the heap
            raise SimulationError("event scheduled at NaN time")
        event = Event(time, self._seq, callback, args, self)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time


class Simulator:
    """Virtual clock plus deterministic event queue."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._events_fired = 0
        self._running = False

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (a progress measure)."""
        return self._events_fired

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0.0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self._queue.push(self._now + delay, callback, args)

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise SimulationError("event queue time went backwards")
        self._now = event.time
        self._events_fired += 1
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired."""
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        fired = 0
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    break
                next_time = self._queue.peek_time()
                if next_time is None:
                    if until is not None and until > self._now:
                        self._now = until
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        return self._now
