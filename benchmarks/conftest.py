"""Shared fixtures for the exhibit benchmarks.

Each benchmark regenerates one of the paper's figures/tables, times
the regeneration and prints the rendered rows/series.  The rendered
text at the quick profile is pinned in ``tests/golden/exhibit_*.txt``
and verified by ``python tests/golden/regenerate.py --check``.

Profile selection: set ``REPRO_PROFILE=paper`` for the full protocol
(the paper's run counts and sweeps — minutes of wall time) or leave
the default ``quick`` profile (seconds; same shapes, lower statistical
resolution).
"""

import os
import pathlib

import pytest

from repro.experiments.profiles import get_profile

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def profile():
    return get_profile(os.environ.get("REPRO_PROFILE", "quick"))


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def regenerate(benchmark, profile):
    """Run an exhibit module once under the benchmark timer, render
    it, print the text, and return it."""

    def _regenerate(name, module):
        data = benchmark.pedantic(module.run, args=(profile,),
                                  rounds=1, iterations=1)
        text = module.render(data)
        print(f"\n== {name}\n{text}")
        return text

    return _regenerate
