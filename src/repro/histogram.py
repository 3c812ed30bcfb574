"""Streaming log-bucketed latency histograms.

Counters (:mod:`repro.metrics`) answer "how much"; the span timeline
(:mod:`repro.sim.trace`) answers "when"; histograms answer "how is it
*distributed*" — the question behind every predictability figure in
the paper.  A :class:`LatencyHistogram` buckets positive values by
their binary exponent (``value in [2**(e-1), 2**e)`` lands in bucket
``e``), which gives ~2x resolution over the full float range with O(1)
insertion and a few dozen buckets for any realistic run.

Design constraints, in order:

* **Hot-path cheap** — the kernel does not call :meth:`add` at all; it
  increments flat bucket arrays inline (one ``math.frexp`` plus a list
  increment, see :func:`bucket_array`) and the histogram object is only
  materialized at snapshot time via :meth:`from_bucket_array`.
* **Mergeable and deterministic** — bucket counts are integers;
  :meth:`merge` sums them, so merging the same runs in the same order
  yields byte-identical JSON regardless of which process produced each
  run.
* **JSON-serializable** — ``as_dict``/``from_dict`` round-trip through
  plain dicts with string keys, the same discipline as
  :class:`repro.metrics.RunMetrics`.

Zero is common (a thread dispatched in the same simulated instant it
became ready has zero scheduling latency) and has no binary exponent,
so zeros are counted separately in :attr:`zeros`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Dict, List, Optional, Sequence, Tuple


#: Hot paths keep bucket counts in a flat list indexed by
#: ``exponent + BUCKET_OFFSET`` — a list increment is several times
#: cheaper than a dict get/set.  The range covers every finite
#: positive double (frexp exponents span [-1073, 1024]).
BUCKET_OFFSET = 1100
BUCKET_ARRAY_SIZE = 2200


#: Every bucket-array index, prebuilt for ``from_bucket_array``.
_ARRAY_INDICES = tuple(range(BUCKET_ARRAY_SIZE))


def bucket_array() -> List[int]:
    """A fresh flat bucket array for inline hot-path accounting."""
    return [0] * BUCKET_ARRAY_SIZE


def bucket_index(value: float) -> int:
    """Bucket for a positive value: ``value in [2**(e-1), 2**e)``.

    ``frexp`` returns ``(m, e)`` with ``value == m * 2**e`` and
    ``m in [0.5, 1)``; an exact power of two therefore opens its
    bucket (``frexp(1.0) == (0.5, 1)`` → bucket 1 covers
    ``[1.0, 2.0)``).
    """
    if value <= 0.0:
        raise ValueError(f"bucket_index needs a positive value: {value}")
    return math.frexp(value)[1]


def bucket_bounds(index: int) -> Tuple[float, float]:
    """The ``[low, high)`` value range of bucket ``index``."""
    return math.ldexp(1.0, index - 1), math.ldexp(1.0, index)


@dataclass
class LatencyHistogram:
    """A mergeable log2-bucketed histogram of non-negative values.

    ``buckets`` maps binary exponent to count; ``zeros`` counts exact
    zeros; ``total`` is the running sum of every added value (for the
    mean).  All three merge by plain addition.
    """

    buckets: Dict[int, int] = field(default_factory=dict)
    zeros: int = 0
    total: float = 0.0

    # ------------------------------------------------------------------
    # Construction and insertion
    # ------------------------------------------------------------------
    @classmethod
    def from_bucket_array(cls, array: Sequence[int], zeros: int = 0,
                          total: float = 0.0) -> "LatencyHistogram":
        """Wrap a flat hot-path bucket array (see :func:`bucket_array`).

        Only the non-zero entries are visited: ``compress`` picks their
        indices in C, in ascending order, from a prebuilt index tuple
        (iterating a ``range`` would allocate an int per entry).
        """
        return cls(
            buckets={index - BUCKET_OFFSET: array[index]
                     for index in compress(_ARRAY_INDICES, array)},
            zeros=zeros, total=total)

    def add(self, value: float) -> None:
        """Record one observation (the non-hot-path entry point)."""
        if value < 0.0:
            raise ValueError(f"histogram values must be >= 0: {value}")
        self.total += value
        if value == 0.0:
            self.zeros += 1
            return
        index = math.frexp(value)[1]
        self.buckets[index] = self.buckets.get(index, 0) + 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total observations, zeros included."""
        return self.zeros + sum(self.buckets.values())

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket bound at (or above) quantile ``q`` in [0, 1].

        Resolution is one bucket (a factor of two); exact zeros report
        0.0.  An empty histogram reports 0.0 for every quantile.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        count = self.count
        if count == 0:
            return 0.0
        rank = q * count
        seen = float(self.zeros)
        if rank <= seen:
            return 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank <= seen:
                return bucket_bounds(index)[1]
        return bucket_bounds(max(self.buckets))[1]

    def nonzero_items(self) -> List[Tuple[int, int]]:
        """``(exponent, count)`` pairs sorted by exponent."""
        return sorted(self.buckets.items())

    # ------------------------------------------------------------------
    # Merge and serialization
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, items: Sequence["LatencyHistogram"],
              ) -> "LatencyHistogram":
        """Sum bucket counts across histograms (order-independent for
        the integer counts; ``total`` follows ``items`` order, which
        the callers keep deterministic)."""
        merged = cls()
        for item in items:
            merged.zeros += item.zeros
            merged.total += item.total
            for index, count in item.buckets.items():
                merged.buckets[index] = \
                    merged.buckets.get(index, 0) + count
        return merged

    def as_dict(self) -> Dict[str, Any]:
        return {
            "buckets": {str(index): count
                        for index, count in sorted(self.buckets.items())},
            "zeros": self.zeros,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]],
                  ) -> "LatencyHistogram":
        if not data:
            return cls()
        return cls(
            buckets={int(index): count
                     for index, count in data.get("buckets", {}).items()},
            zeros=data.get("zeros", 0),
            total=data.get("total", 0.0),
        )
