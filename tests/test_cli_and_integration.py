"""CLI entry point and cross-module integration tests."""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.errors import ReproError
from repro.experiments.runner import Runner
from repro.kernel.kernel import Kernel
from repro.workloads import SpecJBB, TpchPowerRun
from repro.workloads.webserver.client import ClosedLoopClient, Request
from repro._system import System
from tests.harness import GOLDEN_DIR


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "table1" in out

    def test_validate(self, capsys):
        assert cli_main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "8.00" in out  # the 1/8 duty-cycle slowdown

    def test_unknown_exhibit(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["fig99"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["list", "--runs", "5"],
        ["validate", "--metrics-out", "P"],
        ["fig01", "--cache-dir", "D"],
        ["sweep", "--runs", "2"],
        ["sweep", "--predict"],
        ["sweep", "--spot-checks", "1"],
        ["sweep", "--tolerance", "0.1"],
        ["serve", "--faults", "P"],
        ["submit", "--metrics-out", "P"],
        ["report", "--no-coalesce"],
        ["report", "--faults", "P"],
    ], ids=lambda argv: "".join(argv[:2]))
    def test_command_rejects_foreign_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        assert "error: unrecognized arguments" in capsys.readouterr().err

    def test_every_command_renders_its_help(self, capsys):
        for command in ([], ["list"], ["validate"], ["all"], ["fig01"],
                        ["sweep"], ["serve"], ["submit"], ["report"]):
            with pytest.raises(SystemExit) as exit_info:
                cli_main([*command, "--help"])
            assert exit_info.value.code == 0
            assert capsys.readouterr().out.startswith("usage: repro")

    def test_metrics_out_holds_only_runs(self, tmp_path, monkeypatch,
                                         capsys):
        from repro.experiments.figures import ALL_EXHIBITS

        class StubExhibit:
            """No-op exhibit: runs nothing."""
            @staticmethod
            def run(profile, backend=None):
                return None

            @staticmethod
            def render(data):
                return "stub"

        monkeypatch.setitem(ALL_EXHIBITS, "stub-exhibit", StubExhibit)
        out = tmp_path / "metrics.json"
        assert cli_main(["stub-exhibit", "--metrics-out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload == {"format": 1, "records": []}

        # A command that fails writes no run outputs.
        def fail(profile, backend=None):
            raise ReproError("stub failure")

        monkeypatch.setattr(StubExhibit, "run", staticmethod(fail))
        failed = tmp_path / "failed.json"
        capsys.readouterr()
        assert cli_main(["stub-exhibit", "--metrics-out",
                         str(failed)]) == 1
        assert capsys.readouterr().err == \
            "error: stub-exhibit: ReproError: stub failure\n"
        assert not failed.exists()

    def test_model_error_ends_in_one_line(self, tmp_path, capsys):
        # fig13 pins its OpenMP teams to cores, so a schedule that
        # takes core 1 offline leaves a pinned thread no online core.
        schedule = tmp_path / "offline.json"
        schedule.write_text(json.dumps({"events": [
            {"core": 1, "kind": "offline", "time": 0.05},
            {"core": 1, "kind": "online", "time": 0.12}], "seed": 0}))
        out = tmp_path / "metrics.json"
        assert cli_main(["fig13", "--faults", str(schedule),
                         "--metrics-out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fig13: SchedulingError: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_all_simulates_a_repeated_task_once(self, tmp_path,
                                                 monkeypatch, capsys):
        import repro.__main__ as cli

        backends = []

        class SweepExhibit:
            """One single-task sweep; listed twice, it repeats the
            task as table1 re-runs fig10's sweeps."""
            @staticmethod
            def run(profile, backend=None):
                backends.append(backend)
                runner = Runner(configs=["2f-2s/8"], runs=1,
                                backend=backend)
                return runner.run(SpecJBB(warehouses=1,
                                          measurement_seconds=0.1,
                                          warmup_seconds=0.05))

            @staticmethod
            def render(data):
                return "stub"

        monkeypatch.setattr(cli, "ALL_EXHIBITS",
                            {"first": SweepExhibit,
                             "second": SweepExhibit})
        out = tmp_path / "metrics.json"
        assert cli_main(["all", "--metrics-out", str(out)]) == 0
        assert backends[0] is backends[1]
        assert backends[0].simulations_run == 1
        records = json.loads(out.read_text(encoding="utf-8"))["records"]
        assert len(records) == 2 and records[0] == records[1]
        # One exhibit repeats nothing, and a traced result's text
        # would carry its timeline: neither gets a cache.
        for argv in (["second"],
                     ["all", "--trace-out", str(tmp_path / "t.json")]):
            backends.clear()
            assert cli_main(argv) == 0
            assert backends[0].cache is None

    def test_report_runs_every_sweep_on_one_pool(self, tmp_path,
                                                 monkeypatch, capsys):
        from concurrent.futures import ProcessPoolExecutor
        from repro.experiments import parallel

        started = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
        params = {"parallel_degree": 2, "optimization_degree": 3,
                  "queries": [3]}
        assert cli_main(["report", "--workload", "tpch",
                         "--configs", "4f-0s,2f-2s/8", "--runs", "1",
                         "--params", json.dumps(params), "--jobs", "2",
                         "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "report_tpch.md").is_file()
        assert (tmp_path / "report_tpch.json").is_file()
        assert len(started) == 1

    def test_single_exhibit_runs(self, capsys):
        # The CLI prints exactly the pinned text: banner, the golden,
        # one blank line.
        assert cli_main(["fig09"]) == 0
        golden = (GOLDEN_DIR / "exhibit_fig09.txt").read_text(
            encoding="utf-8")
        banner = "== fig09 ".ljust(72, "=")
        assert capsys.readouterr().out == f"{banner}\n{golden}\n"

    def test_bad_profile_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig09", "--profile", "huge"])


class TestCliRunContext:
    """An invocation's flags reach its own runs and nothing else."""

    def test_failed_invocation_leaves_later_runs_untraced(self,
                                                          tmp_path):
        with pytest.raises(OSError):
            cli_main(["fig09", "--trace-out", str(tmp_path / "t.json"),
                      "--metrics-out", str(tmp_path / "m.json"),
                      "--faults", str(tmp_path / "missing.json")])
        sweep = Runner(configs=["2f-2s/8"], runs=1).run(
            SpecJBB(warehouses=1, measurement_seconds=0.1,
                    warmup_seconds=0.05))
        assert [run.trace for run in sweep.all_results()] == [None]

    def test_sweep_no_coalesce_builds_only_sliced_kernels(
            self, monkeypatch, capsys):
        modes = []
        init = Kernel.__init__

        def recording_init(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            modes.append(kernel.coalescing)

        monkeypatch.setattr(Kernel, "__init__", recording_init)
        assert cli_main(["sweep", "--workload", "tpch",
                         "--no-coalesce"]) == 0
        assert modes and not any(modes)

    def test_sweep_with_a_missing_fault_schedule_fails(self, tmp_path,
                                                       capsys):
        with pytest.raises(OSError):
            cli_main(["sweep", "--workload", "tpch",
                      "--faults", str(tmp_path / "missing.json")])


class TestClientEdgeCases:
    def test_zero_concurrency_rejected(self):
        system = System.build("4f-0s")

        class NullServer:
            def submit(self, request):
                request.finish_time = system.now
                request.on_done(request)

        with pytest.raises(ValueError):
            ClosedLoopClient(system, NullServer(), 0)

    def test_measurement_window_bounds_counting(self):
        system = System.build("4f-0s")
        served = []

        class EchoServer:
            def submit(self, request):
                # Serve instantly after 1ms simulated latency.
                def done():
                    request.finish_time = system.now
                    served.append(request)
                    request.on_done(request)
                system.sim.schedule(0.001, done)

        client = ClosedLoopClient(system, EchoServer(), 2,
                                  network_delay=0.001)
        client.start()
        client.measure(warmup=0.1, duration=0.5)
        system.run(until=0.7)
        # Requests completed, but only those inside [0.1, 0.6] counted.
        assert 0 < client.measured_count < len(served)
        assert client.throughput(0.5) == client.measured_count / 0.5

    def test_request_response_time(self):
        request = Request(0, 1.0, lambda r: None)
        assert request.response_time is None
        request.finish_time = 1.5
        assert request.response_time == pytest.approx(0.5)


class TestCrossWorkloadIntegration:
    def test_workloads_share_no_state_between_runs(self):
        # Running one workload must not perturb another's results.
        jbb = SpecJBB(warehouses=4, measurement_seconds=0.5)
        baseline = jbb.run_once("2f-2s/8", seed=9).metric("throughput")
        TpchPowerRun(4, 7, queries=[1]).run_once("2f-2s/8", seed=9)
        again = jbb.run_once("2f-2s/8", seed=9).metric("throughput")
        assert again == baseline

    def test_run_result_metric_error_message(self):
        result = TpchPowerRun(4, 7, queries=[1]).run_once("4f-0s")
        with pytest.raises(KeyError, match="no metric"):
            result.metric("latency")

    def test_primary_metrics_declared(self):
        from repro.workloads import (
            ApacheWorkload, H264Encoder, Pmake, SpecJAppServer,
            ZeusWorkload,
        )
        throughput_kind = (SpecJBB(warehouses=1), SpecJAppServer(),
                           ApacheWorkload(), ZeusWorkload())
        runtime_kind = (TpchPowerRun(), H264Encoder(), Pmake())
        assert all(w.higher_is_better for w in throughput_kind)
        assert not any(w.higher_is_better for w in runtime_kind)
