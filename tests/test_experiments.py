"""Tests for the experiment harness (runner, report, exhibits)."""

import pytest

from repro.experiments import (
    ALL_EXHIBITS,
    QUICK,
    Runner,
    format_series,
    format_speedups,
    format_sweep,
    format_table,
    get_profile,
)
from repro.experiments.profiles import PAPER
from repro.workloads import Pmake, SpecOmpBenchmark


class TestProfiles:
    def test_lookup(self):
        assert get_profile("quick") is QUICK
        assert get_profile("paper") is PAPER

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            get_profile("medium")

    def test_paper_profile_matches_protocol(self):
        assert PAPER.warehouses == tuple(range(1, 21))
        assert PAPER.tpch_queries == tuple(range(1, 23))
        assert PAPER.tpch_query_runs == 13
        assert PAPER.injection_rates == (250, 290, 320)


class TestRunner:
    def test_runs_all_configs(self):
        runner = Runner(runs=2, base_seed=7)
        sweep = runner.run(Pmake(n_files=40))
        assert len(sweep.configs) == 9
        assert all(len(runs) == 2 for runs in sweep.results.values())

    def test_invalid_runs_rejected(self):
        with pytest.raises(ValueError):
            Runner(runs=0)

    def test_seeds_are_distinct_per_repetition(self):
        runner = Runner(configs=["4f-0s"], runs=3, base_seed=50)
        sweep = runner.run(Pmake(n_files=40))
        seeds = [run.seed for run in sweep.results["4f-0s"]]
        assert seeds == [50, 51, 52]

    def test_sweep_accessors(self):
        runner = Runner(configs=["4f-0s", "0f-4s/8"], runs=2)
        sweep = runner.run(Pmake(n_files=40))
        assert set(sweep.samples()) == {"4f-0s", "0f-4s/8"}
        assert sweep.summary("4f-0s").n == 2
        means = sweep.means()
        assert means["0f-4s/8"] > means["4f-0s"]

    def test_speedups_normalized_to_baseline(self):
        runner = Runner(configs=["4f-0s", "0f-4s/8"], runs=2)
        sweep = runner.run(Pmake(n_files=40))
        speedups = sweep.speedups(baseline="0f-4s/8")
        assert speedups["0f-4s/8"] == pytest.approx(1.0)
        assert speedups["4f-0s"] > 4.0  # runtime metric, 8x power

    def test_classification_from_sweep(self):
        # All nine configurations: the 4-config Figure 8 subset is too
        # coarse to expose the broken speed-vs-power fit.
        runner = Runner(runs=2)
        sweep = runner.run(SpecOmpBenchmark("swim"))
        cls = sweep.classification()
        assert cls.predictable        # pinned team: stable
        assert not cls.scalable       # static loops: slowest-bound


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) <= len(max(lines, key=len))
                   for line in lines)

    def test_format_sweep_contains_configs(self):
        runner = Runner(configs=["4f-0s"], runs=2)
        sweep = runner.run(Pmake(n_files=40))
        text = format_sweep(sweep)
        assert "4f-0s" in text
        assert "CoV" in text

    def test_format_sweep_policy_columns(self):
        runner = Runner(configs=["4f-0s", "2f-2s/8"], runs=1)
        sweeps = {
            policy: runner.run(
                SpecOmpBenchmark("swim", omp_schedule=policy))
            for policy in ("static", "static_weighted")
        }
        text = format_sweep(policies=sweeps)
        assert "static" in text and "static_weighted" in text
        assert "2f-2s/8" in text
        assert "by schedule" in text

    def test_format_sweep_requires_input(self):
        with pytest.raises(ValueError):
            format_sweep()
        assert "no data" in format_sweep(policies={})

    def test_format_speedups_empty(self):
        assert "no data" in format_speedups({})

    def test_format_series(self):
        text = format_series("t", [1, 2], {"s": [10.0, 20.0]},
                             x_name="n")
        assert "t" in text and "n" in text and "20.0" in text


class TestExhibitRegistry:
    def test_all_fourteen_exhibits_present(self):
        expected = {"fig01", "fig02", "fig03", "fig04", "fig05",
                    "fig06", "fig07", "fig08", "fig09", "fig10",
                    "fig11", "fig12", "fig13", "table1"}
        assert set(ALL_EXHIBITS) == expected

    def test_every_exhibit_has_run_and_render(self):
        for name, module in ALL_EXHIBITS.items():
            assert callable(module.run), name
            assert callable(module.render), name

    def test_fig09_quick_run_renders(self):
        # One end-to-end exhibit smoke test (the cheapest one); the
        # exhibit goldens (regenerate.py --check) pin all fourteen.
        module = ALL_EXHIBITS["fig09"]
        text = module.render(module.run(QUICK))
        assert "Figure 9(a)" in text
        assert "PMAKE" in text
