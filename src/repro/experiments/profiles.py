"""Execution profiles for the experiment harness.

``PAPER`` mirrors the paper's protocol (run counts per figure, full
parameter sweeps); ``QUICK`` shrinks run counts and workload sizes so
the whole suite regenerates in seconds — the shapes survive, only the
statistical resolution drops.  ``python -m repro`` defaults to
``QUICK`` (``--profile paper`` selects ``PAPER``); the exhibit goldens
and the unit tests use ``QUICK``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Profile:
    """Knobs shared by the figure experiments."""

    name: str
    #: Default repetitions per configuration.
    runs: int
    #: SPECjbb steady-state seconds and the warehouse sweep of Fig. 1.
    specjbb_measurement: float
    warehouses: Tuple[int, ...]
    #: TPC-H queries in the power run (PAPER = all 22).
    tpch_queries: Tuple[int, ...]
    #: Runs for the single-query experiment (paper shows 13).
    tpch_query_runs: int
    #: Web server steady-state seconds.
    web_measurement: float
    #: H.264 frames and PMAKE files.
    h264_frames: int = 6
    pmake_files: int = 790
    #: jAppServer injection rates of Figure 3(b).
    injection_rates: Tuple[int, ...] = (250, 290, 320)
    #: Simulated seconds per LockStress run in the Figure 12
    #: slow-holder exhibit.
    lockstress_seconds: float = 0.6


PAPER = Profile(
    name="paper",
    runs=4,
    specjbb_measurement=2.0,
    warehouses=tuple(range(1, 21)),
    tpch_queries=tuple(range(1, 23)),
    tpch_query_runs=13,
    web_measurement=2.0,
)

QUICK = Profile(
    name="quick",
    runs=3,
    specjbb_measurement=1.5,
    warehouses=(2, 6, 10),
    tpch_queries=(1, 3, 6, 9, 14, 18),
    tpch_query_runs=5,
    web_measurement=1.0,
    h264_frames=6,
    pmake_files=200,
)


def get_profile(name: str) -> Profile:
    profiles = {"paper": PAPER, "quick": QUICK}
    try:
        return profiles[name]
    except KeyError:
        raise ValueError(
            f"unknown profile {name!r}; choose from {sorted(profiles)}"
        ) from None
