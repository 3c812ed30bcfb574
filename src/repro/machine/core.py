"""A single processor core with duty-cycle controlled speed.

Work throughout the library is expressed in *cycles*.  A core converts
cycles to simulated seconds through its effective rate::

    effective_rate = base_frequency_hz * duty_cycle   [cycles / second]

The default base frequency matches the paper's 2.8 GHz Xeons.  Nothing
downstream depends on the absolute value — only on ratios between cores
— but using the real number keeps reported times in a familiar range.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.machine.duty_cycle import snap_duty_cycle

#: Base clock of the paper's 4-way Xeon prototype (§2).
DEFAULT_FREQUENCY_HZ = 2.8e9


class Core:
    """One processor core.

    Parameters
    ----------
    index:
        Position of this core in the machine (0-based).
    duty_cycle:
        Initial duty cycle in (0, 1]; snapped to hardware steps.
    frequency_hz:
        Base clock frequency before modulation.
    """

    def __init__(self, index: int, duty_cycle: float = 1.0,
                 frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> None:
        if frequency_hz <= 0:
            raise ConfigurationError(
                f"core frequency must be positive, got {frequency_hz}")
        self.index = index
        self.frequency_hz = frequency_hz
        # The clock-modulation register (paper §2), snapped to a
        # hardware step.  Written only by set_duty_cycle.
        self._duty_cycle = snap_duty_cycle(duty_cycle)
        #: Effective cycle rate in cycles/second.  A stored value, not
        #: a property: slice sizing, placement and lock handoffs read
        #: it millions of times per run, and it changes only when
        #: :meth:`set_duty_cycle` reprograms the register.
        self.rate = frequency_hz * self._duty_cycle
        #: Accumulated busy time in simulated seconds (kernel-maintained).
        self.busy_time = 0.0
        #: Cycles retired on this core (kernel-maintained); tracked
        #: separately from ``busy_time`` because the effective rate can
        #: change between slices (duty-cycle reprogramming).
        self.busy_cycles = 0.0
        # Always-on observability counters (see repro.metrics).  They
        # live directly on the core — not behind a collector lookup —
        # because the kernel dispatch loop increments them millions of
        # times per run and one attribute access is the whole budget.
        #: Threads dispatched onto this core.
        self.dispatches = 0
        #: Dispatches whose thread last ran on a different core.
        self.migrations_in = 0
        #: Involuntary descheduling events (quantum expiry + pulls).
        self.preemptions = 0
        #: Sum / max of runqueue length sampled at each dispatch.
        self.rq_total = 0
        self.rq_max = 0
        #: Sum of ready-to-dispatch waits booked on this core (value
        #: total of the sched-latency histogram).  Accumulated per core
        #: and summed in core order at snapshot time; the golden
        #: fixtures pin that float summation order.
        self.lat_total = 0.0
        #: Idle seconds, accumulated independently of ``busy_time``
        #: (kernel-maintained; see the cycle-conservation invariant).
        self.idle_seconds = 0.0
        #: When the core last became idle (slice retirement time).
        self.idle_since = 0.0
        #: The thread currently executing here, if any (kernel-maintained).
        self.current_thread: Optional[object] = None
        #: False while the core is hot-unplugged (fault injection); an
        #: offline core is never scheduled and accumulates idle time.
        self.online = True
        #: Wall seconds spent at each duty cycle before the current one
        #: (time-at-speed books; the open interval since
        #: ``speed_since`` is folded in at snapshot time).
        self.time_at_speed: Dict[float, float] = {}
        #: When the current duty cycle took effect.
        self.speed_since = 0.0

    # ------------------------------------------------------------------
    @property
    def duty_cycle(self) -> float:
        return self._duty_cycle

    @property
    def relative_speed(self) -> float:
        """Speed relative to an unmodulated core of the same frequency."""
        return self._duty_cycle

    def seconds_for_cycles(self, cycles: float) -> float:
        """Wall time this core needs to retire ``cycles``."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        return cycles / self.rate

    def cycles_in_seconds(self, seconds: float) -> float:
        """Cycles this core retires in ``seconds`` of busy execution."""
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        return seconds * self.rate

    def set_duty_cycle(self, fraction: float) -> float:
        """Program the modulation register; returns the snapped value.

        The one entry point that changes the core's speed, so it also
        refreshes the stored :attr:`rate`.
        """
        self._duty_cycle = snap_duty_cycle(fraction)
        self.rate = self.frequency_hz * self._duty_cycle
        return self._duty_cycle

    def record_speed_change(self, now: float) -> None:
        """Close the time-at-speed interval at the current duty cycle.

        Called by the kernel immediately *before* reprogramming the
        modulation register mid-run, so that the per-duty wall-time
        books (``sum(time_at_speed) + open interval == duration``)
        stay exact across dynamic speed changes.
        """
        duty = self._duty_cycle
        self.time_at_speed[duty] = \
            self.time_at_speed.get(duty, 0.0) + (now - self.speed_since)
        self.speed_since = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Core(index={self.index}, duty={self.duty_cycle:.3f}, "
                f"rate={self.rate:.3e}Hz)")
