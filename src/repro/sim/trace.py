"""Lightweight structured tracing for simulations.

Tracing exists for three audiences: tests, which assert on sequences
of kernel decisions (placements, migrations, preemptions); humans
debugging a workload model; and the timeline exporter
(:mod:`repro.sim.trace_export`), which turns a run into a Chrome
trace-event / Perfetto file.  It is off by default and costs one
``if`` per trace point when disabled.

Two record shapes exist:

* :class:`TraceRecord` — a point event (a scheduler decision, a fault
  application): one timestamp plus key/value details.
* :class:`SpanRecord` — an interval: begin/end timestamps plus a name
  and an optional core/thread binding.  Spans are what the timeline
  views render as boxes (a compute slice on a core, a thread blocked
  on a mutex, a throttle window shading a core's track).

Spans are opened with :meth:`Tracer.span` — which returns ``None``
when the category is disabled, so hot paths pay the usual one-``if``
guard — and closed with :meth:`Span.end`, at which point the completed
:class:`SpanRecord` is retained and forwarded to sinks.

The retained lists are the tracer's one copy of its timeline and are
never cleared, so a failing run's forensics are their tail:
``tests/harness.py`` dumps that tail (the *flight recorder*) when a
conservation or golden-trace check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
    Union,
)

@dataclass(frozen=True)
class TraceRecord:
    """One trace point: a timestamp, a category, and key/value details."""

    time: float
    category: str
    details: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.details:
            if name == key:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        record = {"time": self.time, "category": self.category}
        record.update(dict(self.details))
        return record


@dataclass(frozen=True)
class SpanRecord:
    """A completed interval: ``[start, end]`` in one category.

    ``name`` is what timeline views label the box with (a thread name
    for compute slices, a block reason, a fault kind); ``core`` and
    ``thread`` bind the span to a track.  ``details`` mirrors
    :class:`TraceRecord` so sinks can treat both shapes uniformly via
    :meth:`get`.
    """

    start: float
    end: float
    category: str
    name: str
    core: Optional[int] = None
    thread: Optional[str] = None
    details: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.details:
            if name == key:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "span": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
        }
        if self.core is not None:
            record["core"] = self.core
        if self.thread is not None:
            record["thread"] = self.thread
        record.update(dict(self.details))
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        data = dict(data)
        return cls(
            start=data.pop("start"),
            end=data.pop("end"),
            category=data.pop("category"),
            name=data.pop("span"),
            core=data.pop("core", None),
            thread=data.pop("thread", None),
            details=tuple(sorted(data.items())),
        )


class Span:
    """An open interval handle returned by :meth:`Tracer.span`.

    Mutable and cheap: ending it builds the immutable
    :class:`SpanRecord` and hands it to the tracer.  A span may be
    ended exactly once; ending it again raises.
    """

    __slots__ = ("_tracer", "category", "name", "start", "core",
                 "thread", "details")

    def __init__(self, tracer: "Tracer", start: float, category: str,
                 name: str, core: Optional[int],
                 thread: Optional[str],
                 details: Tuple[Tuple[str, Any], ...]) -> None:
        self._tracer: Optional["Tracer"] = tracer
        self.start = start
        self.category = category
        self.name = name
        self.core = core
        self.thread = thread
        self.details = details

    def end(self, time: float, **details: Any) -> SpanRecord:
        """Close the span at ``time``; extra details are appended."""
        tracer = self._tracer
        if tracer is None:
            raise RuntimeError(
                f"span {self.name!r} ended twice")
        self._tracer = None
        merged = self.details
        if details:
            merged = tuple(sorted(dict(merged, **details).items()))
        record = SpanRecord(self.start, time, self.category, self.name,
                            self.core, self.thread, merged)
        tracer._retain_span(record)
        return record


#: What sinks receive: point records and completed spans.
TraceItem = Union[TraceRecord, SpanRecord]


class Tracer:
    """Collects :class:`TraceRecord` / :class:`SpanRecord` objects for
    enabled categories.

    ``active`` is the public set of enabled categories; hot paths guard
    trace points with ``if "sched" in tracer.active`` so that a
    disabled trace point costs one set-membership check and never
    builds the keyword dict a :meth:`record` call would require.

    Sink guarantee
    --------------
    Sinks registered with :meth:`add_sink` observe **exactly** the
    items this tracer retains, in retention order: every point record
    that passes the category gate, and every completed span (spans are
    forwarded once, at :meth:`Span.end` time — never while open).
    Nothing gated out by ``active`` ever reaches a sink, and nothing
    retained is skipped — so a sink is a superset-free, subset-free
    live view of :meth:`records` plus :meth:`spans`.
    """

    def __init__(self) -> None:
        #: Enabled categories (treat as read-only; use enable/disable).
        self.active: set = set()
        self._records: List[TraceRecord] = []
        self._spans: List[SpanRecord] = []
        self._sinks: List[Callable[[TraceItem], None]] = []

    # ------------------------------------------------------------------
    # Category control
    # ------------------------------------------------------------------
    def enable(self, *categories: str) -> None:
        """Start recording the given categories (e.g. ``"sched"``)."""
        self.active.update(categories)

    def add_sink(self, sink: Callable[[TraceItem], None]) -> None:
        """Forward retained items to ``sink`` (see the class docstring
        for the exact guarantee)."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, time: float, category: str, **details: Any) -> None:
        """Record a trace point if its category is enabled."""
        if category not in self.active:
            return
        rec = TraceRecord(time, category, tuple(sorted(details.items())))
        self._records.append(rec)
        for sink in self._sinks:
            sink(rec)

    def span(self, time: float, category: str, name: str,
             core: Optional[int] = None, thread: Optional[str] = None,
             **details: Any) -> Optional[Span]:
        """Open a span at ``time``; returns ``None`` when disabled.

        Hot paths should guard the call with
        ``if category in tracer.active`` so the disabled cost stays at
        one set-membership check; the ``None`` return makes an
        unguarded call safe too.
        """
        if category not in self.active:
            return None
        return Span(self, time, category, name, core, thread,
                    tuple(sorted(details.items())) if details else ())

    def _retain_span(self, record: SpanRecord) -> None:
        self._spans.append(record)
        for sink in self._sinks:
            sink(record)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def records(self, category: Optional[str] = None) -> List[TraceRecord]:
        """All retained point records, optionally filtered by category."""
        if category is None:
            return list(self._records)
        return [r for r in self._records if r.category == category]

    def spans(self, category: Optional[str] = None) -> List[SpanRecord]:
        """All retained completed spans, optionally by category.

        Order is retention order — deterministic for a given execution
        mode, but *not* an invariant across modes: the kernel's
        quantum-coalescing catch-up retains a core's skipped exec spans
        in a burst, so cross-core interleaving can differ from sliced
        execution.  Consumers that compare spans across runs must sort
        by content (see ``trace_export._span_sort_key``); per-core and
        aggregate views are unaffected.
        """
        if category is None:
            return list(self._spans)
        return [s for s in self._spans if s.category == category]


#: The category set ``--trace-out`` enables when ``--trace`` is absent.
DEFAULT_TRACE_CATEGORIES = ("exec", "sched", "block", "faults")


def parse_categories(spec: str) -> FrozenSet[str]:
    """Parse a ``--trace`` argument: comma-separated category names."""
    categories = frozenset(
        part.strip() for part in spec.split(",") if part.strip())
    if not categories:
        raise ValueError(f"no trace categories in {spec!r}")
    return categories
