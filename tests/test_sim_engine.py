"""Unit tests for the discrete-event simulation core."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.kernel.kernel import _Slice
from repro.sim import Simulator
from repro.sim.events import EventQueue
from repro.sim.rng import RandomStream, StreamRegistry, derive_seed


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, fired.append, ("b",))
        queue.push(1.0, fired.append, ("a",))
        queue.push(3.0, fired.append, ("c",))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback(*event.args)
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.0, lambda: None)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        keeper = queue.push(2.0, lambda: None)
        queue.cancel(event)
        assert len(queue) == 1
        assert queue.pop() is keeper

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        early = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(early)
        assert queue.peek_time() == 2.0

    def test_fast_path_events_interleave_with_cancellable(self):
        queue = EventQueue()
        fired = []
        queue.push_fast(2.0, fired.append, ("fast",))
        cancellable = queue.push(1.0, fired.append, ("slow",))
        queue.push_fast(1.0, fired.append, ("tie",))
        assert len(queue) == 3
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback(*event.args)
        # Same time: schedule order wins, regardless of entry kind.
        assert fired == ["slow", "tie", "fast"]
        assert not cancellable.cancelled

    def test_heap_compacts_when_cancelled_outnumber_live(self):
        queue = EventQueue()
        events = [queue.push(float(i + 1), lambda: None)
                  for i in range(1000)]
        queue.push(5000.0, lambda: None)  # one survivor
        for event in events:
            queue.cancel(event)
        assert len(queue) == 1
        # Lazy deletion must not leave the heap full of corpses: the
        # compaction policy bounds dead entries by live ones, so the
        # heap holds at most 2 * live entries.
        assert queue.heap_size() <= 2 * len(queue)

    def test_timeout_pattern_keeps_heap_bounded(self):
        # Timeout style: schedule a guard event, then cancel it because
        # the guarded operation completed early.  Repeated forever this
        # must not grow the heap.
        queue = EventQueue()
        queue.push_fast(1e9, lambda: None)  # long-lived sentinel
        for i in range(10_000):
            event = queue.push(1e6 + i, lambda: None)
            queue.cancel(event)
        assert len(queue) == 1
        assert queue.heap_size() <= 3

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(float("nan"), lambda: None)

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_pop_order_is_sorted_for_any_times(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, lambda: None)
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            popped.append(event.time)
        assert popped == sorted(times)


def _slice(time, tag=None):
    """A kernel compute slice as its own end event."""
    return _Slice(time, lambda *args: None, (tag,), None, 0.0, 1.0)


class TestPushEvent:
    """``push_event`` queues a caller-built event, as the kernel's
    compute slices are: the same checks, order and cancellation
    bookkeeping as ``push``."""

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push_event(_slice(float("nan")))
        assert len(queue) == 0 and queue.heap_size() == 0

    def test_returns_the_event_stamped_with_its_sequence(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        piece = _slice(2.0)
        assert queue.push_event(piece, 3) is piece
        assert piece.seq == 1 and not piece.cancelled
        assert queue.pop().seq == 0
        assert queue.pop() is piece

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                              st.integers(min_value=-1, max_value=3),
                              st.booleans()),
                    min_size=1, max_size=40))
    def test_same_order_as_push(self, entries):
        # Interleave push, push_event and push_fast on one queue and
        # mirror every entry with plain push on another: both must
        # fire in the same (time, group, seq) order.
        mixed, plain = EventQueue(), EventQueue()
        for tag, (time, group, as_event) in enumerate(entries):
            if as_event:
                mixed.push_event(_slice(time, tag), group)
            elif tag % 2:
                mixed.push_fast(time, lambda *args: None, (tag,), group)
            else:
                mixed.push(time, lambda *args: None, (tag,), group)
            plain.push(time, lambda *args: None, (tag,), group)
        order = []
        while (item := mixed.pop_before(float("inf"))) is not None:
            order.append(item[2][0])
        expected = sorted(range(len(entries)),
                          key=lambda tag: entries[tag][:2] + (tag,))
        assert order == expected
        assert [plain.pop().args[0] for _ in entries] == expected

    def test_cancelled_slices_are_skipped_and_counted(self):
        queue = EventQueue()
        pieces = [queue.push_event(_slice(float(i)), i % 4)
                  for i in range(6)]
        queue.push_fast(2.5, lambda: None)
        queue.cancel(pieces[0])
        queue.cancel(pieces[3])
        queue.cancel(pieces[3])  # idempotent
        assert len(queue) == 5
        assert queue.heap_size() == 7
        assert queue.peek_time() == 1.0  # the cancelled head surfaced
        assert queue.heap_size() == 6
        fired = []
        while (item := queue.pop_before(float("inf"))) is not None:
            fired.append(item[0])
        assert fired == [1.0, 2.0, 2.5, 4.0, 5.0]
        assert len(queue) == 0 and queue.heap_size() == 0

    def test_cancelled_event_refused(self):
        # Its entry is still buried in the heap: pushing it again
        # would revive that entry.
        queue = EventQueue()
        piece = queue.push_event(_slice(1.0))
        queue.push_fast(2.0, lambda: None)
        queue.cancel(piece)
        heap = list(queue._heap)
        with pytest.raises(SimulationError):
            queue.push_event(piece)
        assert queue._heap == heap
        assert len(queue) == 1 and queue.heap_size() == 2

    def test_fired_event_fires_again_when_pushed_again(self):
        queue = EventQueue()
        piece = queue.push_event(_slice(1.0, "a"), 2)
        queue.push_fast(3.0, lambda *args: None, ("b",))
        assert queue.pop_before(float("inf"))[::2] == (1.0, ("a",))
        piece.time = 5.0
        assert queue.push_event(piece, 2) is piece
        assert piece.seq == 2 and not piece.cancelled
        fired = []
        while (item := queue.pop_before(float("inf"))) is not None:
            fired.append(item[::2])
        assert fired == [(3.0, ("b",)), (5.0, ("a",))]
        assert len(queue) == 0 and queue.heap_size() == 0

    def test_compaction_drops_cancelled_slices(self):
        queue = EventQueue()
        keeper = queue.push_event(_slice(1e6))
        pieces = [queue.push_event(_slice(float(i + 1)))
                  for i in range(100)]
        for piece in pieces:
            queue.cancel(piece)
            assert queue.heap_size() - len(queue) <= len(queue) + 1
        assert len(queue) == 1
        assert queue.pop() is keeper


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until_stops_early_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 2]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_max_events_bounds_execution(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=4)
        assert sim.events_fired == 4

    def test_zero_delay_events_preserve_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.0, seen.append, "a")
        sim.schedule(0.0, seen.append, "b")
        sim.run()
        assert seen == ["a", "b"]

    def test_advance_to_past_pending_event_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.advance_to(2.0)


class TestRandomStreams:
    def test_derive_seed_is_stable(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_derive_seed_differs_by_name_and_seed(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")
        assert derive_seed(42, "a") != derive_seed(43, "a")

    def test_registry_returns_same_stream_object(self):
        registry = StreamRegistry(7)
        assert registry.stream("x") is registry.stream("x")

    def test_streams_are_independent(self):
        registry = StreamRegistry(7)
        a_alone = StreamRegistry(7).stream("a")
        reference = [a_alone.random() for _ in range(5)]
        b = registry.stream("b")
        a = registry.stream("a")
        b.random()  # draws on b must not shift a
        assert [a.random() for _ in range(5)] == reference

    def test_same_seed_reproduces_sequence(self):
        first = RandomStream(123)
        second = RandomStream(123)
        assert [first.random() for _ in range(10)] == \
            [second.random() for _ in range(10)]

    def test_choice_tiebreak_single_candidate_draws_no_randomness(self):
        stream = RandomStream(1)
        state = stream.getstate()
        assert stream.choice_tiebreak(["only"]) == "only"
        assert stream.getstate() == state

    def test_choice_tiebreak_empty_raises(self):
        with pytest.raises(ValueError):
            RandomStream(1).choice_tiebreak([])

    @given(st.floats(min_value=0.001, max_value=1e6), st.integers(0, 2**32))
    def test_jitter_zero_fraction_is_identity(self, value, seed):
        assert RandomStream(seed).jitter(value, 0.0) == value

    @given(st.floats(min_value=0.001, max_value=1e6),
           st.floats(min_value=0.001, max_value=0.5),
           st.integers(0, 2**32))
    def test_jitter_stays_in_bounds(self, value, fraction, seed):
        result = RandomStream(seed).jitter(value, fraction)
        assert value * (1 - fraction) <= result <= value * (1 + fraction)

    def test_exponential_requires_positive_mean(self):
        with pytest.raises(ValueError):
            RandomStream(1).exponential(0.0)
