"""Shared fixtures for the engine and service benchmarks.

Exhibits are regenerated by ``python -m repro <exhibit>`` (add
``--profile paper`` for the full protocol); their quick-profile texts
are pinned in ``tests/golden/exhibit_*.txt`` and verified by
``python tests/golden/regenerate.py --check``.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
