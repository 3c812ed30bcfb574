"""Deterministic fault injection: dynamic asymmetry as timed events.

The paper emulates *static* asymmetry — each core's duty cycle is
programmed once, before a run.  Real machines are worse: thermal and
power management reprogram core speeds *at runtime*, cores are taken
offline by hotplug or failure, and I/O hiccups stall threads for
milliseconds at a time.  This module models those disturbances as a
:class:`FaultSchedule` — a seeded, JSON-serializable list of timed
fault events driven by the ordinary event engine, so a faulted run is
exactly as reproducible as a clean one: identical schedule + seed
gives byte-identical :class:`~repro.metrics.RunMetrics`, serial and
process-pool alike.

Event kinds
-----------
* :class:`ThrottleEvent` — reprogram one core's clock-modulation
  register mid-run (with optional recovery to the previous duty cycle
  after ``duration`` seconds).  The kernel re-splits any in-flight
  compute slice so cycle accounting stays exact across the speed step.
* :class:`CoreOfflineEvent` / :class:`CoreOnlineEvent` — hot-unplug /
  hot-plug a core.  The kernel migrates the run queue and the running
  thread off a dying core; schedulers never place work on an offline
  core.
* :class:`StallEvent` — the thread currently running on a core blocks
  for a fixed window (an I/O hiccup); its partially executed compute
  instruction resumes afterwards with no cycles lost or double-counted.

Wiring
------
A run's schedule is the ``faults`` field of the
:class:`~repro.workloads.base.RunOptions` it runs under, which each
task carries (into worker processes too, keeping parallel sweeps
bit-identical to serial ones): ``Workload.run_once(...,
options=RunOptions(faults=schedule))`` runs one workload under it, and
``python -m repro <exhibit> --faults schedule.json`` puts it on every
task of an exhibit.  ``FaultSchedule.throttle_storm`` generates the
seeded random storms of the Figure 11–13 exhibits, which put their
own storm on their stormy tasks in place of ``--faults``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.machine.duty_cycle import throttle_steps
from repro.sim.rng import RandomStream, derive_seed


@dataclass(frozen=True)
class ThrottleEvent:
    """Reprogram ``core``'s duty cycle at ``time``.

    With ``duration`` set, the previous duty cycle is restored
    ``duration`` seconds later (a transient thermal throttle); without
    it the change is permanent for the rest of the run.
    """

    time: float
    core: int
    duty_cycle: float
    duration: Optional[float] = None

    kind = "throttle"

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": self.kind,
            "time": self.time,
            "core": self.core,
            "duty_cycle": self.duty_cycle,
        }
        if self.duration is not None:
            data["duration"] = self.duration
        return data


@dataclass(frozen=True)
class CoreOfflineEvent:
    """Take ``core`` offline at ``time`` (hot-unplug / failure)."""

    time: float
    core: int

    kind = "offline"

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "time": self.time, "core": self.core}


@dataclass(frozen=True)
class CoreOnlineEvent:
    """Bring ``core`` back online at ``time`` (hot-plug / recovery)."""

    time: float
    core: int

    kind = "online"

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "time": self.time, "core": self.core}


@dataclass(frozen=True)
class StallEvent:
    """Block the thread running on ``core`` for ``duration`` seconds.

    Models an I/O hiccup hitting whatever the core happens to be
    executing.  If the core is idle (or offline) when the event fires,
    the stall is skipped and counted as ``faults.stall_skipped``.
    """

    time: float
    core: int
    duration: float

    kind = "stall"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "time": self.time,
            "core": self.core,
            "duration": self.duration,
        }


FaultEvent = Union[ThrottleEvent, CoreOfflineEvent, CoreOnlineEvent, StallEvent]

_EVENT_KINDS = {
    "throttle": ThrottleEvent,
    "offline": CoreOfflineEvent,
    "online": CoreOnlineEvent,
    "stall": StallEvent,
}


def event_from_dict(data: Dict[str, Any]) -> FaultEvent:
    """Rebuild one fault event from its ``as_dict`` form."""
    data = dict(data)
    kind = data.pop("kind", None)
    cls = _EVENT_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown fault event kind {kind!r}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigurationError(
            f"malformed {kind!r} fault event {data!r}: {exc}"
        ) from None


class FaultSchedule:
    """An ordered, validated list of fault events for one run.

    Events fire in time order; simultaneous events fire in list order
    (the event queue's sequence numbers make that deterministic).  The
    optional ``seed`` records the storm generator's seed for
    provenance — it does not affect replay.
    """

    def __init__(self, events: Iterable[FaultEvent],
                 seed: Optional[int] = None,
                 label: str = "") -> None:
        self.events: List[FaultEvent] = sorted(events,
                                               key=lambda e: e.time)
        self.seed = seed
        self.label = label
        self._validate_events()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate_events(self) -> None:
        for event in self.events:
            if event.time < 0.0:
                raise ConfigurationError(
                    f"fault event scheduled in the past: {event}")
            if event.core < 0:
                raise ConfigurationError(
                    f"negative core index in fault event: {event}")
            if isinstance(event, ThrottleEvent):
                if not 0.0 < event.duty_cycle <= 1.0:
                    raise ConfigurationError(
                        f"duty cycle must be in (0, 1]: {event}")
                if event.duration is not None and event.duration <= 0.0:
                    raise ConfigurationError(
                        f"throttle duration must be positive: {event}")
            if isinstance(event, StallEvent) and event.duration <= 0.0:
                raise ConfigurationError(
                    f"stall duration must be positive: {event}")

    def validate(self, n_cores: int) -> None:
        """Check the schedule against a machine of ``n_cores`` cores.

        Beyond bounds checks, replays the offline/online sequence to
        guarantee at least one core stays online at every instant —
        the kernel refuses to strand the whole machine.
        """
        offline: set = set()
        for event in self.events:
            if event.core >= n_cores:
                raise ConfigurationError(
                    f"fault event targets core {event.core} but the "
                    f"machine has {n_cores} cores")
            if isinstance(event, CoreOfflineEvent):
                offline.add(event.core)
                if len(offline) >= n_cores:
                    raise ConfigurationError(
                        f"schedule takes every core offline at "
                        f"t={event.time}; at least one core must stay "
                        "online")
            elif isinstance(event, CoreOnlineEvent):
                offline.discard(event.core)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def counts(self) -> Dict[str, int]:
        """Number of events per kind (reporting helper)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultSchedule({len(self.events)} events, "
                f"seed={self.seed}, label={self.label!r})")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "events": [event.as_dict() for event in self.events],
        }
        if self.seed is not None:
            data["seed"] = self.seed
        if self.label:
            data["label"] = self.label
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """Deterministic JSON rendering (sorted keys)."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        return cls(
            events=[event_from_dict(entry)
                    for entry in data.get("events", [])],
            seed=data.get("seed"),
            label=data.get("label", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(indent=2) + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    @classmethod
    def throttle_storm(cls, seed: int, duration: float,
                       cores: Sequence[int],
                       events_per_second: float = 25.0,
                       recovery_mean: float = 0.02,
                       permanent_fraction: float = 0.0,
                       ) -> "FaultSchedule":
        """A seeded random storm of transient throttle events.

        Poisson-ish arrivals over ``(0, duration)``: each event picks a
        victim core and a supported duty-cycle step below 100%
        uniformly, throttles it, and recovers after an exponentially
        distributed window (mean ``recovery_mean``) unless the draw
        lands in ``permanent_fraction``.  The same ``seed`` always
        produces the same storm.
        """
        if duration <= 0.0:
            raise ConfigurationError(
                f"storm duration must be positive, got {duration}")
        if events_per_second <= 0.0:
            raise ConfigurationError(
                "storm rate must be positive, got "
                f"{events_per_second}")
        if not cores:
            raise ConfigurationError("storm needs at least one core")
        rng = RandomStream(derive_seed(seed, "faults.throttle_storm"))
        steps = throttle_steps()
        events: List[FaultEvent] = []
        time = rng.exponential(1.0 / events_per_second)
        while time < duration:
            core = cores[rng.randrange(len(cores))]
            duty = steps[rng.randrange(len(steps))]
            recovery: Optional[float] = rng.exponential(recovery_mean)
            if permanent_fraction > 0.0 \
                    and rng.random() < permanent_fraction:
                recovery = None
            events.append(ThrottleEvent(time, core, duty,
                                        duration=recovery))
            time += rng.exponential(1.0 / events_per_second)
        return cls(events, seed=seed,
                   label=f"throttle-storm@{events_per_second:g}/s")

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, system) -> "FaultInjector":
        """Arm this schedule on a freshly built system (before run)."""
        injector = FaultInjector(system, self)
        injector.install()
        return injector


class FaultInjector:
    """Binds a :class:`FaultSchedule` to one system's event queue.

    Each fault event becomes an ordinary simulator event; the apply
    callbacks delegate to the kernel's dynamic-asymmetry entry points
    (:meth:`~repro.kernel.kernel.Kernel.reprogram_core`,
    :meth:`~repro.kernel.kernel.Kernel.set_core_offline`, ...).  Every
    applied fault increments a ``faults.*`` counter in the run's
    :class:`~repro.metrics.CounterBag`, so fault activity shows up in
    :class:`~repro.metrics.RunMetrics` and the conservation invariants
    can be audited mid-storm.
    """

    def __init__(self, system, schedule: FaultSchedule) -> None:
        self.system = system
        self.schedule = schedule
        #: Fault events applied so far (recoveries not included).
        self.applied = 0
        #: Open ``"faults"`` offline-window spans keyed by core index,
        #: ended by the matching online event (an offline window never
        #: closed by run end is simply not retained).
        self._offline_spans: Dict[int, Any] = {}

    def install(self) -> None:
        self.schedule.validate(len(self.system.machine.cores))
        # Every fault is an ordinary simulator event, scheduled here
        # and never cancelled, so the simulator's event horizon bounds
        # the kernel's macro slices (DESIGN.md §9) below each one.
        for event in self.schedule.events:
            self.system.sim.schedule_at(event.time, self._apply, event)

    # ------------------------------------------------------------------
    def _trace(self, **payload: Any) -> None:
        tracer = self.system.sim.tracer
        if "faults" in tracer.active:
            tracer.record(self.system.sim.now, "faults", **payload)

    def _span(self, name: str, core_index: int, **details: Any):
        """Open a ``"faults"`` window span (None when disabled).

        Fault windows — throttle-until-recovery, offline-until-online,
        stall-for-duration — render as shaded intervals on the core's
        timeline track, alongside the point records ``_trace`` keeps
        for tests.
        """
        tracer = self.system.sim.tracer
        if "faults" not in tracer.active:
            return None
        return tracer.span(self.system.sim.now, "faults", name,
                           core=core_index, **details)

    def _apply(self, event: FaultEvent) -> None:
        kernel = self.system.kernel
        counters = kernel.metrics.counters
        core = self.system.machine.cores[event.core]
        self.applied += 1
        if isinstance(event, ThrottleEvent):
            previous = core.duty_cycle
            snapped = kernel.reprogram_core(core, event.duty_cycle)
            counters.incr("faults.throttle")
            self._trace(event="throttle", core=core.index,
                        duty_cycle=snapped)
            if event.duration is not None:
                # The recovery event already exists; thread the window
                # span through its args so closing it costs no extra
                # event (determinism: event counts must not change).
                span = self._span("throttle", core.index,
                                  duty_cycle=snapped)
                self.system.sim.schedule_fast(
                    event.duration, self._recover, core, previous, span)
        elif isinstance(event, CoreOfflineEvent):
            kernel.set_core_offline(core)
            counters.incr("faults.offline")
            self._trace(event="offline", core=core.index)
            self._offline_spans[core.index] = \
                self._span("offline", core.index)
        elif isinstance(event, CoreOnlineEvent):
            kernel.set_core_online(core)
            counters.incr("faults.online")
            self._trace(event="online", core=core.index)
            span = self._offline_spans.pop(core.index, None)
            if span is not None:
                span.end(self.system.sim.now)
        elif isinstance(event, StallEvent):
            stalled = kernel.stall_current(core, event.duration)
            if stalled:
                counters.incr("faults.stall")
            else:
                counters.incr("faults.stall_skipped")
            self._trace(event="stall", core=core.index,
                        applied=stalled)
            if stalled:
                # The window end is known now; close the span at its
                # future end time rather than scheduling a new event.
                span = self._span("stall", core.index)
                if span is not None:
                    span.end(self.system.sim.now + event.duration)
        else:  # pragma: no cover - event_from_dict forbids this
            raise ConfigurationError(f"unknown fault event {event!r}")

    def _recover(self, core, duty_cycle: float, span=None) -> None:
        """Restore a core's pre-throttle duty cycle."""
        kernel = self.system.kernel
        snapped = kernel.reprogram_core(core, duty_cycle)
        kernel.metrics.counters.incr("faults.recovery")
        self._trace(event="recover", core=core.index,
                    duty_cycle=snapped)
        if span is not None:
            span.end(self.system.sim.now)
