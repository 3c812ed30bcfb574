"""Experiment harness: runner, profiles, reporting and the exhibits."""

from repro.experiments.figures import ALL_EXHIBITS
from repro.experiments.parallel import (
    ProcessPoolBackend,
    RunTask,
    SerialBackend,
    make_backend,
)
from repro.experiments.profiles import PAPER, QUICK, Profile, get_profile
from repro.experiments.report import (
    format_histogram,
    format_metrics,
    format_seconds,
    format_series,
    format_speedups,
    format_sweep,
    format_table,
)
from repro.experiments.runner import ConfigSweep, Runner

__all__ = [
    "Runner",
    "ConfigSweep",
    "RunTask",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
    "Profile",
    "PAPER",
    "QUICK",
    "get_profile",
    "format_table",
    "format_sweep",
    "format_speedups",
    "format_series",
    "format_metrics",
    "format_histogram",
    "format_seconds",
    "ALL_EXHIBITS",
]
