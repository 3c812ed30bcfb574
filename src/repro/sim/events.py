"""Event objects and the time-ordered event queue.

The queue is a binary heap keyed on ``(time, group, sequence)``.  The
sequence number makes ordering of simultaneous events deterministic:
two events scheduled for the same instant and group fire in the order
they were scheduled.  Determinism matters because the whole
reproduction depends on run-to-run variance coming *only* from
explicitly seeded random streams, never from incidental tie-breaking.

The *group* orders simultaneous events of different groups ahead of
scheduling order.  The kernel tags its slice-boundary and macro-end
events with their core index and everything else (timers, zero-delay
dispatches) uses the default group ``-1``.  At any shared timestamp
the machine therefore processes timers first and then each core's
boundary in core order, each followed by the dispatches it requests —
regardless of *when* each boundary was scheduled.  The
quantum-coalescing fast path relies on that invariance: when a wakeup
splits a macro slice, the real boundary event it re-arms lands on the
shared quantum grid but is scheduled at the split rather than one
quantum earlier, so it carries a later sequence number than its sliced
counterpart.  The group key keeps it in the same place among the other
cores' same-time boundaries, so same-time handlers observe each
other's runqueues and consume tie-break RNG in the same order in both
execution modes.

Performance notes
-----------------
The heap stores plain tuples, never :class:`Event` objects, so heap
sifting compares ``(time, group, seq)`` prefixes entirely in C.  Two
entry shapes coexist (the sequence number is unique, so comparisons
never reach the fourth element):

* ``(time, group, seq, callback, args)`` — the *fast path* used by
  :meth:`EventQueue.push_fast` for the overwhelming majority of events
  (kernel dispatches, sleep timers, workload drivers) that are never
  cancelled.  No per-event object is allocated at all.
* ``(time, group, seq, event)`` — the cancellable path used by
  :meth:`EventQueue.push`, which returns a slot-based :class:`Event`
  handle, and by :meth:`EventQueue.push_event`, which queues an event
  the caller built itself.  The kernel's compute slices subclass
  :class:`Event` and carry their own bookkeeping, so a slice and its
  cancellable end event are one object, which the kernel pushes again
  for its core's next slice once it has fired.

Cancellation is lazy (cancelled events stay buried in the heap and are
skipped when they surface) but bounded: whenever cancelled entries
outnumber live ones the heap is compacted in place, so timeout-style
schedule/cancel traffic cannot grow the heap without bound.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Tuple

from repro.errors import SimulationError


class Event:
    """A cancellable scheduled callback.

    Instances are returned by :meth:`EventQueue.push` (and by
    ``Simulator.schedule``); subclasses that carry their own state are
    queued with :meth:`EventQueue.push_event`.  The object is a pure
    data slot — it holds no reference back to its queue; cancel it
    through :meth:`EventQueue.cancel` (or ``Simulator.cancel``) so the
    queue can keep its count of cancelled entries exact.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} seq={self.seq} {name} {state}>"


class EventQueue:
    """Deterministic min-heap of scheduled callbacks."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._cancelled = 0  # cancelled events still buried in the heap

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return len(self._heap) - self._cancelled

    def heap_size(self) -> int:
        """Physical heap length, including lazily-deleted entries.

        ``heap_size() - len(queue)`` is the number of cancelled events
        awaiting compaction; the compaction policy keeps it at most
        ``len(queue) + 1``.
        """
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: float, callback: Callable[..., Any],
             args: tuple = (), group: int = -1) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``.

        Returns an :class:`Event` handle that can be cancelled via
        :meth:`cancel`.  Call sites that never cancel should prefer
        :meth:`push_fast`.  ``group`` orders simultaneous events ahead
        of scheduling order (see the module docstring).
        """
        if time != time:  # NaN guard: a NaN time would corrupt the heap
            raise SimulationError("event scheduled at NaN time")
        event = Event(time, self._seq, callback, args)
        heapq.heappush(self._heap, (time, group, self._seq, event))
        self._seq += 1
        return event

    def push_event(self, event: Event, group: int = -1) -> Event:
        """Schedule a caller-built ``event`` at ``event.time``.

        Like :meth:`push`, but the caller allocated the event (usually
        a subclass carrying its own state); the queue stamps its
        sequence number and returns it.  An event that fired may be
        pushed again, with a new time and sequence number.  A cancelled
        event is refused: it stays in the heap until it surfaces or the
        heap is compacted, and pushing it again would revive that
        entry, so re-arming it needs a fresh object.
        """
        if event.cancelled:
            raise SimulationError("cannot push a cancelled event")
        time = event.time
        if time != time:
            raise SimulationError("event scheduled at NaN time")
        seq = self._seq
        event.seq = seq
        heapq.heappush(self._heap, (time, group, seq, event))
        self._seq = seq + 1
        return event

    def push_fast(self, time: float, callback: Callable[..., Any],
                  args: tuple = (), group: int = -1) -> None:
        """Schedule an *uncancellable* callback with no Event allocation."""
        if time != time:
            raise SimulationError("event scheduled at NaN time")
        heapq.heappush(self._heap,
                       (time, group, self._seq, callback, args))
        self._seq += 1

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, event: Event) -> None:
        """Prevent ``event`` from firing.  Idempotent.

        Cancellation is O(1) (lazy deletion) except when cancelled
        entries come to outnumber live ones, at which point the heap is
        compacted — an amortized-O(log n) cost per cancel overall.
        """
        if event.cancelled:
            return
        event.cancelled = True
        self._cancelled += 1
        if 2 * self._cancelled > len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry from the heap and re-heapify."""
        if not self._cancelled:
            return
        self._heap = [entry for entry in self._heap
                      if len(entry) == 5 or not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty.

        Fast-path entries are materialized into :class:`Event` objects
        here for API uniformity; the simulator's run loop bypasses this
        via :meth:`pop_before`.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if len(entry) == 4:
                event = entry[3]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                return event
            return Event(entry[0], entry[2], entry[3], entry[4])
        return None

    def pop_before(self, limit: float,
                   ) -> Optional[Tuple[float, Callable[..., Any], tuple]]:
        """Pop the earliest live event iff its time is <= ``limit``.

        Returns ``(time, callback, args)`` — the single hot-path call
        the run loops make per event — or None when the queue is empty
        or the next live event lies beyond ``limit`` (which is left in
        place).
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if len(entry) == 4:
                event = entry[3]
                if event.cancelled:
                    heapq.heappop(heap)
                    self._cancelled -= 1
                    continue
                if entry[0] > limit:
                    return None
                heapq.heappop(heap)
                return (entry[0], event.callback, event.args)
            if entry[0] > limit:
                return None
            heapq.heappop(heap)
            return (entry[0], entry[3], entry[4])
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if len(entry) == 4 and entry[3].cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def horizon(self, skip_callbacks: tuple = ()) -> float:
        """Earliest live event time, or +inf when the queue is empty.

        ``skip_callbacks`` names callbacks whose events are ignored —
        the kernel's quantum-coalescing fast path excludes its own
        slice/macro-slice events when asking "when does the next event
        *someone else* scheduled fire?".  Without skips this is
        :meth:`peek_time` (O(1)); with skips the whole heap is scanned
        (callers only pay this when they are about to replace many
        events with one, so the scan amortizes).
        """
        if not skip_callbacks:
            time = self.peek_time()
            return float("inf") if time is None else time
        best = float("inf")
        for entry in self._heap:
            if entry[0] >= best:
                continue
            if len(entry) == 4:
                event = entry[3]
                if event.cancelled:
                    continue
                callback = event.callback
            else:
                callback = entry[3]
            if callback in skip_callbacks:
                continue
            best = entry[0]
        return best
