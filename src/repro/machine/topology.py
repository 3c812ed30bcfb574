"""Machine configurations and the ``nf-ms/scale`` labelling scheme.

The paper labels each machine setup ``nf-ms/scale``: *n* fast cores plus
*m* slow cores running at 1/scale the fast speed.  Total compute power
of such a machine is ``n + m/scale`` (paper §3).  The nine standard
configurations studied throughout the evaluation are::

    symmetric : 4f-0s, 0f-4s/4, 0f-4s/8
    asymmetric: 3f-1s/4, 3f-1s/8, 2f-2s/4, 2f-2s/8, 1f-3s/4, 1f-3s/8
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.machine.core import DEFAULT_FREQUENCY_HZ, Core
from repro.machine.duty_cycle import duty_cycle_for_scale

_LABEL_RE = re.compile(r"^(\d+)f-(\d+)s(?:/(\d+))?$")


@dataclass(frozen=True)
class MachineConfig:
    """A parsed ``nf-ms/scale`` configuration.

    ``scale`` is meaningful only when ``slow > 0``; for all-fast
    machines it is conventionally 1.
    """

    fast: int
    slow: int
    scale: int = 1

    def __post_init__(self) -> None:
        if self.fast < 0 or self.slow < 0:
            raise ConfigurationError("core counts must be non-negative")
        if self.fast + self.slow == 0:
            raise ConfigurationError("machine must have at least one core")
        if self.scale < 1:
            raise ConfigurationError(f"scale must be >= 1, got {self.scale}")
        if self.slow > 0 and self.scale == 1:
            raise ConfigurationError(
                "slow cores at scale 1 are indistinguishable from fast "
                "cores; use fast cores instead")

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, label: str) -> "MachineConfig":
        """Parse a label such as ``"2f-2s/8"`` or ``"4f-0s"``."""
        match = _LABEL_RE.match(label.strip())
        if match is None:
            raise ConfigurationError(
                f"malformed configuration label: {label!r} "
                "(expected e.g. '2f-2s/8' or '4f-0s')")
        fast, slow = int(match.group(1)), int(match.group(2))
        scale = int(match.group(3)) if match.group(3) else 1
        if slow == 0:
            scale = 1
        return cls(fast=fast, slow=slow, scale=scale)

    @property
    def label(self) -> str:
        """The canonical ``nf-ms/scale`` label."""
        if self.slow == 0:
            return f"{self.fast}f-{self.slow}s"
        return f"{self.fast}f-{self.slow}s/{self.scale}"

    @property
    def n_cores(self) -> int:
        return self.fast + self.slow

    @property
    def total_compute_power(self) -> float:
        """``n + m/scale`` in fast-core units (paper §3)."""
        return self.fast + self.slow / self.scale

    @property
    def is_symmetric(self) -> bool:
        """True when all cores have equal speed."""
        return self.fast == 0 or self.slow == 0

    def core_speeds(self) -> List[float]:
        """Relative speed of each core, fast cores first."""
        return [1.0] * self.fast + [1.0 / self.scale] * self.slow


class Machine:
    """A multiprocessor built from a :class:`MachineConfig`.

    The machine owns its cores; the kernel (see :mod:`repro.kernel`)
    owns scheduling state layered on top of them.
    """

    def __init__(self, config: MachineConfig,
                 frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> None:
        self.config = config
        self.frequency_hz = frequency_hz
        self._custom_label: Optional[str] = None
        self.cores: List[Core] = []
        for index in range(config.fast):
            self.cores.append(Core(index, 1.0, frequency_hz))
        for offset in range(config.slow):
            duty = duty_cycle_for_scale(config.scale)
            self.cores.append(
                Core(config.fast + offset, duty, frequency_hz))

    # ------------------------------------------------------------------
    @classmethod
    def from_label(cls, label: str,
                   frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> "Machine":
        """Build a machine directly from an ``nf-ms/scale`` label."""
        return cls(MachineConfig.parse(label), frequency_hz)

    @classmethod
    def custom(cls, duty_cycles: "List[float]",
               frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> "Machine":
        """Build a machine with an arbitrary per-core duty cycle each.

        The paper's hardware supports seven modulation steps (12.5% …
        87.5%) per processor, far beyond the nf-ms/scale shorthand of
        its evaluation; this constructor exposes the full range for
        extension studies.  Values are snapped to hardware steps.
        """
        if not duty_cycles:
            raise ConfigurationError("machine must have at least one core")
        machine = cls(MachineConfig(fast=len(duty_cycles), slow=0),
                      frequency_hz)
        for core, duty in zip(machine.cores, duty_cycles):
            core.set_duty_cycle(duty)
        machine._custom_label = "custom[" + ",".join(
            f"{core.duty_cycle:g}" for core in machine.cores) + "]"
        return machine

    @property
    def label(self) -> str:
        if self._custom_label is not None:
            return self._custom_label
        return self.config.label

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def total_rate(self) -> float:
        """Aggregate cycle rate across all cores (cycles/second)."""
        return sum(core.rate for core in self.cores)

    @property
    def fastest_rate(self) -> float:
        return max(core.rate for core in self.cores)

    @property
    def slowest_rate(self) -> float:
        return min(core.rate for core in self.cores)

    def is_fast(self, core: Core) -> bool:
        """True when ``core`` runs at the machine's fastest *current*
        rate — a throttled fast core counts as slow, and every core of
        a symmetric machine is fast."""
        return core.rate == self.fastest_rate

    def fast_cores(self) -> List[Core]:
        return [c for c in self.cores if self.is_fast(c)]

    def slow_cores(self) -> List[Core]:
        return [c for c in self.cores if not self.is_fast(c)]

    def cores_by_speed(self, descending: bool = True) -> List[Core]:
        """Cores ordered by effective rate (stable for equal speeds)."""
        return sorted(self.cores, key=lambda c: -c.rate if descending
                      else c.rate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.label}, {self.n_cores} cores)"


#: The nine configurations of the paper's evaluation, in figure order
#: (left to right: decreasing total compute power).
STANDARD_CONFIG_LABELS: Tuple[str, ...] = (
    "4f-0s",
    "3f-1s/4",
    "3f-1s/8",
    "2f-2s/4",
    "2f-2s/8",
    "1f-3s/4",
    "1f-3s/8",
    "0f-4s/4",
    "0f-4s/8",
)

#: Labels of the symmetric subset.
SYMMETRIC_CONFIG_LABELS: Tuple[str, ...] = ("4f-0s", "0f-4s/4", "0f-4s/8")

#: Labels of the asymmetric subset.
ASYMMETRIC_CONFIG_LABELS: Tuple[str, ...] = tuple(
    label for label in STANDARD_CONFIG_LABELS
    if label not in SYMMETRIC_CONFIG_LABELS)


def standard_configs() -> List[MachineConfig]:
    """The paper's nine configurations as parsed objects."""
    return [MachineConfig.parse(label) for label in STANDARD_CONFIG_LABELS]
