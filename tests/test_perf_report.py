"""Tests for the performance-report subsystem
(:mod:`repro.analysis.perf_report`).

The contracts under test:

* the committed ``tests/golden/report_specjbb_quick.{json,md}``
  fixtures match a fresh build byte-for-byte (the report pipeline is
  pinned like any other golden surface);
* generation is **deterministic**: two builds/renders from the same
  inputs are byte-identical;
* the report carries the acceptance-criteria sections — throughput,
  asym-vs-stock deltas, a USL theoretical-vs-measured table whose
  residuals are self-consistent, and the seed-panel variability
  characterization;
* ``sweep_from_payloads`` rebuilds a sweep losslessly from ``submit
  --json-out`` payloads (the offline mode CI's report steps use);
* ``tools/check_schema.py`` accepts the fixture and rejects
  mutations of it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis.perf_report import (
    REPORT_FORMAT,
    build_report,
    canonical_report_json,
    generate_report_files,
    golden_metadata,
    render_markdown,
    sweep_from_payloads,
)
from repro.service.cache import result_to_payload

from tests.harness import (
    GOLDEN_DIR,
    GOLDEN_LEDGER_RECORDS,
    golden_report_inputs,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def sweeps():
    """The fixture sweeps, simulated once for the whole module."""
    return golden_report_inputs()


@pytest.fixture(scope="module")
def report(sweeps):
    stock, asym = sweeps
    return build_report(
        stock, asym,
        ledger_records=GOLDEN_LEDGER_RECORDS,
        golden=golden_metadata(str(GOLDEN_DIR), stock.workload))


class TestGoldenFixture:
    def test_json_matches_committed_fixture(self, report):
        committed = (GOLDEN_DIR / "report_specjbb_quick.json") \
            .read_text(encoding="utf-8")
        assert canonical_report_json(report) == committed

    def test_markdown_matches_committed_fixture(self, report):
        committed = (GOLDEN_DIR / "report_specjbb_quick.md") \
            .read_text(encoding="utf-8")
        assert render_markdown(report) == committed


class TestDeterminism:
    def test_build_twice_is_byte_identical(self, sweeps):
        stock, asym = sweeps
        kwargs = dict(ledger_records=GOLDEN_LEDGER_RECORDS,
                      golden=golden_metadata(str(GOLDEN_DIR),
                                             stock.workload))
        first = canonical_report_json(
            build_report(stock, asym, **kwargs))
        second = canonical_report_json(
            build_report(stock, asym, **kwargs))
        assert first == second

    def test_render_twice_is_byte_identical(self, report):
        assert render_markdown(report) == render_markdown(report)

    def test_no_host_leaks(self, report):
        """No absolute paths or host details in the payload."""
        text = canonical_report_json(report)
        assert "/tmp" not in text
        assert str(ROOT) not in text


class TestReportShape:
    def test_acceptance_sections_present(self, report):
        assert report["format"] == REPORT_FORMAT
        assert report["workload"] == "SPECjbb"
        for section in ("throughput", "deltas", "usl", "variability",
                        "service", "seed_panel"):
            assert section in report

    def test_usl_residuals_are_consistent(self, report):
        for scheduler in ("stock", "asym"):
            table = report["usl"][scheduler]["table"]
            assert len(table) == len(report["configs"])
            for row in table:
                assert row["measured"] - row["predicted"] == \
                    pytest.approx(row["residual"], abs=1e-9)

    def test_deltas_agree_with_throughput_means(self, report):
        for label in report["configs"]:
            delta = report["deltas"][label]
            assert delta["stock"] == pytest.approx(
                report["throughput"]["stock"][label]["mean"])
            assert delta["asym"] == pytest.approx(
                report["throughput"]["asym"][label]["mean"])
            assert delta["speedup"] > 0

    def test_variability_covs_nonnegative(self, report):
        per_config = report["variability"]["per_config"]
        for label in report["configs"]:
            for scheduler in ("stock", "asym"):
                assert per_config[label][scheduler]["cov"] >= 0

    def test_variability_histogram_percentiles(self, report):
        histograms = report["variability"]["histograms"]
        for scheduler in ("stock", "asym"):
            slices = histograms[scheduler]["slice_seconds"]
            assert slices["count"] > 0
            assert slices["p50_seconds"] <= slices["p95_seconds"] \
                <= slices["p99_seconds"]

    def test_service_section_summarizes_the_ledger(self, report):
        service = report["service"]
        assert service["records"] == len(GOLDEN_LEDGER_RECORDS)
        assert service["by_request"]["sweep"] == 3
        assert service["latency"]["queue_wait_seconds"]["count"] == 2

    def test_config_mismatch_is_an_error(self, sweeps):
        stock, asym = sweeps
        import copy
        truncated = copy.deepcopy(asym)
        truncated.results.pop(next(iter(truncated.results)))
        with pytest.raises(ValueError):
            build_report(stock, truncated)


class TestPolicySection:
    @pytest.fixture(scope="class")
    def policy_report(self, sweeps):
        from repro.experiments import Runner
        from repro.workloads import SpecOmpBenchmark

        runner = Runner(configs=("4f-0s", "2f-2s/8"), runs=1)
        policies = {
            policy: runner.run(
                SpecOmpBenchmark("swim", omp_schedule=policy))
            for policy in ("static", "static_weighted")
        }
        stock, asym = sweeps
        return build_report(stock, asym, policies=policies)

    def test_omp_policies_section_present(self, policy_report):
        section = policy_report["omp_policies"]
        assert set(section) == {"static", "static_weighted"}
        for entry in section.values():
            assert "2f-2s/8" in entry["means"]
            assert "usl" in entry

    def test_markdown_renders_schedule_comparison(self, policy_report):
        text = render_markdown(policy_report)
        assert "## Loop-schedule comparison" in text
        assert "static_weighted" in text

    def test_absent_without_policies(self, report):
        assert "omp_policies" not in report


class TestOfflinePayloads:
    def test_sweep_from_payloads_round_trips(self, sweeps):
        stock, _ = sweeps
        payloads = [result_to_payload(result)
                    for label in stock.results
                    for result in stock.results[label]]
        rebuilt = sweep_from_payloads("specjbb", payloads)
        assert list(rebuilt.results) == list(stock.results)
        assert rebuilt.means() == pytest.approx(stock.means())

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            sweep_from_payloads("no-such-workload", [])

    def test_one_sided_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_report_files(
                "specjbb", str(tmp_path),
                stock_results=str(tmp_path / "only.json"))


class TestSchemaChecker:
    @pytest.fixture(scope="class")
    def checker(self):
        spec = importlib.util.spec_from_file_location(
            "check_schema", ROOT / "tools" / "check_schema.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_fixture_passes(self, checker, report):
        payload = json.loads(canonical_report_json(report))
        errors, census = checker.check_report(payload)
        assert errors == []
        assert "service" in census

    def test_markdown_fixture_passes(self, checker, report):
        assert checker.check_markdown(render_markdown(report)) == []

    def test_mutations_rejected(self, checker, report):
        payload = json.loads(canonical_report_json(report))
        broken = json.loads(json.dumps(payload))
        broken["usl"]["stock"]["table"][0]["residual"] += 1.0
        errors, _ = checker.check_report(broken)
        assert any("residual inconsistent" in e for e in errors)
        missing = json.loads(json.dumps(payload))
        del missing["variability"]
        errors, _ = checker.check_report(missing)
        assert errors

    def test_missing_heading_rejected(self, checker):
        errors = checker.check_markdown("# Performance report — x\n")
        assert errors

    def test_cli_on_committed_fixture(self, checker, capsys):
        code = checker.main(
            [str(GOLDEN_DIR / "report_specjbb_quick.json"),
             str(GOLDEN_DIR / "report_specjbb_quick.md")])
        assert code == 0
        assert "ok" in capsys.readouterr().out
