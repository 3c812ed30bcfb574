"""Span timeline tests: tracer API, kernel emission, fault windows.

The span layer is the "when" of the observability stack — these tests
pin its contract: spans are retained only for enabled categories, the
sink sees exactly what is retained, the flight recorder
(``harness.flight_ring``) is a bounded tail of what is retained, and
the kernel's emitted timeline is physically consistent (no core runs
two things at once, no thread blocks while it runs).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import System
from repro.kernel import Compute, Lock, Mutex, Sleep, SimThread, Unlock
from repro.sim.trace import SpanRecord, Tracer

from tests import harness


# ----------------------------------------------------------------------
# Tracer span API
# ----------------------------------------------------------------------
class TestSpanAPI:
    def test_disabled_category_returns_none(self):
        tracer = Tracer()
        assert tracer.span(0.0, "exec", "t0") is None
        assert tracer.spans() == []

    def test_span_retained_on_end(self):
        tracer = Tracer()
        tracer.enable("exec")
        span = tracer.span(1.0, "exec", "t0", core=2, thread="t0")
        record = span.end(1.5, note="done")
        assert tracer.spans("exec") == [record]
        assert record.start == 1.0 and record.end == 1.5
        assert record.duration == 0.5
        assert record.core == 2 and record.thread == "t0"
        assert record.get("note") == "done"

    def test_double_end_raises(self):
        tracer = Tracer()
        tracer.enable("exec")
        span = tracer.span(0.0, "exec", "t0")
        span.end(1.0)
        with pytest.raises(RuntimeError):
            span.end(2.0)

    def test_span_record_dict_round_trip(self):
        record = SpanRecord(0.25, 0.75, "block", "lock m", core=None,
                            thread="t3", details=(("owner", "t1"),))
        assert SpanRecord.from_dict(record.as_dict()) == record

    def test_sink_sees_exactly_retained_items_in_order(self):
        tracer = Tracer()
        tracer.enable("sched", "exec")
        seen = []
        tracer.add_sink(seen.append)
        tracer.record(0.0, "sched", event="run")       # retained
        tracer.record(0.0, "faults", event="offline")  # gated out
        span = tracer.span(0.0, "exec", "t0")
        tracer.record(0.1, "sched", event="idle")      # retained
        span.end(0.2)                                  # span forwarded
        # Retention order: both sched records, then the span (spans
        # are forwarded at end time).  The gated-out faults record
        # never reaches the sink.
        assert seen == [tracer.records()[0], tracer.records()[1],
                        tracer.spans()[0]]

    def test_flight_ring_is_bounded(self):
        capacity = harness.FLIGHT_RECORDER_CAPACITY
        tracer = Tracer()
        tracer.enable("sched")
        for index in range(capacity + 50):
            tracer.record(float(index), "sched", event="tick")
        dump = harness.flight_ring(tracer)
        assert len(dump) == capacity
        assert dump[-1]["time"] == float(capacity + 49)
        # Unbounded retention still holds everything.
        assert len(tracer.records()) == capacity + 50


# ----------------------------------------------------------------------
# Kernel emission
# ----------------------------------------------------------------------
def _run_traced(config, seed, bodies):
    system = System.build(config, seed=seed)
    system.sim.tracer.enable("exec", "block", "sched")
    for index, body in enumerate(bodies):
        system.kernel.spawn(SimThread(f"t{index}", body))
    system.run()
    return system


class TestKernelSpans:
    def test_exec_spans_cover_core_busy_time(self):
        def body(cycles):
            yield Compute(cycles)

        system = _run_traced("1f-3s/8", 3,
                             [body(c) for c in (4e8, 2e8, 1e8)])
        spans = system.sim.tracer.spans("exec")
        assert spans, "compute run emitted no exec spans"
        busy_from_spans = {}
        for span in spans:
            busy_from_spans[span.core] = \
                busy_from_spans.get(span.core, 0.0) + span.duration
        for core in system.machine.cores:
            assert busy_from_spans.get(core.index, 0.0) == \
                pytest.approx(core.busy_time, abs=1e-9)

    def test_lock_contention_emits_block_spans(self):
        mutex = [None]

        def body():
            yield Compute(2e8)
            yield Lock(mutex[0])
            yield Compute(2e8)
            yield Unlock(mutex[0])

        system = System.build("2f-2s/8", seed=9)
        mutex[0] = Mutex("m")
        system.sim.tracer.enable("exec", "block")
        for index in range(4):
            system.kernel.spawn(SimThread(f"t{index}", body()))
        system.run()
        blocks = system.sim.tracer.spans("block")
        lock_waits = [span for span in blocks if span.name == "lock m"]
        assert lock_waits, "contended mutex produced no block spans"
        for span in lock_waits:
            assert span.thread is not None
            assert span.duration > 0.0

    def test_sleep_emits_block_span(self):
        def body():
            yield Compute(1e8)
            yield Sleep(0.25)
            yield Compute(1e8)

        system = _run_traced("0f-4s/8", 1, [body()])
        sleeps = [span for span in system.sim.tracer.spans("block")
                  if span.name == "sleep"]
        assert len(sleeps) == 1
        assert sleeps[0].duration == pytest.approx(0.25, abs=1e-9)


# ----------------------------------------------------------------------
# Physical consistency, property-tested over seeds and workloads
# ----------------------------------------------------------------------
def _assert_no_overlap(spans, what):
    ordered = sorted(spans, key=lambda span: (span.start, span.end))
    for previous, current in zip(ordered, ordered[1:]):
        assert current.start >= previous.end - 1e-12, (
            f"{what}: {previous.name} [{previous.start}, {previous.end}]"
            f" overlaps {current.name} "
            f"[{current.start}, {current.end}]")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       cycles=st.lists(st.integers(10**7, 6 * 10**8),
                       min_size=2, max_size=6))
def test_spans_nest_and_never_overlap(seed, cycles):
    """Per-core exec spans tile without overlap; a thread never
    blocks and runs at the same instant; every span runs forward."""
    def body(count, pause):
        yield Compute(count)
        yield Sleep(pause)
        yield Compute(count // 2)

    system = System.build("1f-3s/8", seed=seed)
    system.sim.tracer.enable("exec", "block")
    for index, count in enumerate(cycles):
        system.kernel.spawn(
            SimThread(f"t{index}",
                      body(count, 0.001 * (index + 1))))
    system.run()
    spans = system.sim.tracer.spans()
    assert all(span.end >= span.start for span in spans)

    per_core = {}
    per_thread = {}
    for span in spans:
        if span.category == "exec":
            per_core.setdefault(span.core, []).append(span)
        if span.thread is not None:
            per_thread.setdefault(span.thread, []).append(span)
    for core, core_spans in per_core.items():
        _assert_no_overlap(core_spans, f"core {core}")
    for thread, thread_spans in per_thread.items():
        _assert_no_overlap(thread_spans, f"thread {thread}")


# ----------------------------------------------------------------------
# Fault windows on the golden seed
# ----------------------------------------------------------------------
class TestFaultSpans:
    @pytest.fixture(scope="class")
    def storm(self):
        """Replay the fault_storm_2f-2s_seed5 golden scenario."""
        system = System.build("2f-2s/8", seed=5)
        system.sim.tracer.enable("faults")
        harness.golden_fault_schedule().install(system)

        def body(cycles):
            yield Compute(cycles)

        for index, cycles in enumerate([5e8, 3e8, 2e8, 1.2e8, 0.9e8]):
            system.kernel.spawn(SimThread(f"t{index}", body(cycles)))
        system.run()
        return system

    def test_throttle_window_is_a_shaded_interval(self, storm):
        throttles = [span for span
                     in storm.sim.tracer.spans("faults")
                     if span.name == "throttle"]
        # Only the transient throttle has a window; the permanent one
        # at t=0.15 never recovers, so it stays a point record.
        assert len(throttles) == 1
        span = throttles[0]
        assert span.core == 0
        assert span.start == pytest.approx(0.03)
        assert span.end == pytest.approx(0.09)
        assert span.get("duty_cycle") == pytest.approx(0.25)

    def test_offline_window_closed_by_online_event(self, storm):
        offline = [span for span in storm.sim.tracer.spans("faults")
                   if span.name == "offline"]
        assert len(offline) == 1
        assert offline[0].core == 1
        assert offline[0].start == pytest.approx(0.05)
        assert offline[0].end == pytest.approx(0.12)

    def test_stall_window_spans_the_stall_duration(self, storm):
        stalls = [span for span in storm.sim.tracer.spans("faults")
                  if span.name == "stall"]
        assert len(stalls) == 1
        assert stalls[0].core == 2
        assert stalls[0].duration == pytest.approx(0.02)

    def test_point_records_unchanged_by_span_layer(self, storm):
        """The golden fixture's record stream is exactly what the
        tracer still emits — spans ride alongside, never replace."""
        payload = harness.load_golden("fault_storm_2f-2s_seed5")
        fresh = [record.as_dict() for record
                 in storm.sim.tracer.records("faults")]
        assert fresh == payload["events"]
