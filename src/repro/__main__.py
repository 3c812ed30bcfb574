"""Command-line entry point: regenerate paper exhibits.

Usage::

    python -m repro list                  # available exhibits
    python -m repro fig04                 # regenerate one exhibit
    python -m repro all                   # regenerate everything
    python -m repro fig08 --profile paper # full protocol
    python -m repro all --jobs 4          # fan runs out over 4 workers
    python -m repro validate              # machine self-check
    python -m repro fig01 --trace-out t.json   # Perfetto timeline
    python -m repro sweep --workload tpch --predict  # analytic sweep
    python -m repro serve --port 7070 --cache-dir /var/cache/repro
    python -m repro submit --port 7070 --workload specjbb --runs 2
    python -m repro report --workload specjbb --out-dir reports

``--jobs N`` parallelizes the independent simulation runs over N
worker processes; results are bit-identical to a serial run.
``--trace-out`` exports a Chrome trace-event timeline of every run;
open it in https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.faults import FaultSchedule
from repro.kernel.kernel import coalescing_enabled
from repro.metrics import metrics_record
from repro.sim import trace as _trace
from repro.sim import trace_export as _trace_export
from repro.experiments.figures import ALL_EXHIBITS
from repro.experiments.parallel import Backend, make_backend
from repro.experiments.profiles import get_profile
from repro.machine import (
    Machine,
    STANDARD_CONFIG_LABELS,
    run_microbenchmark,
)
from repro.workloads.base import RunOptions


def _cmd_list() -> int:
    print("available exhibits:")
    for name, module in ALL_EXHIBITS.items():
        summary = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:8s} {summary}")
    return 0


_SWEEP_WORKLOADS = ("specjbb", "tpch", "specomp")


def _sweep_workload(name: str, profile, omp_schedule: str = "all"):
    """Build the named workload at the profile's scale."""
    if name == "specjbb":
        from repro.workloads.specjbb import SpecJBB
        return SpecJBB(warehouses=profile.specjbb_warehouses,
                       measurement_seconds=profile.specjbb_measurement)
    if name == "specomp":
        from repro.workloads.specomp import SpecOmpBenchmark
        schedule = None if omp_schedule == "all" else omp_schedule
        return SpecOmpBenchmark("swim", omp_schedule=schedule)
    from repro.workloads.tpch.workload import TpchPowerRun
    return TpchPowerRun(parallel_degree=4, optimization_degree=7,
                        queries=list(profile.tpch_queries))


def _cmd_sweep(workload_name: str, profile_name: str, predict: bool,
               backend: Backend, spot_checks: int = 1,
               tolerance: float = 0.10,
               omp_schedule: str = "all") -> None:
    """Run (or analytically predict) one workload's config sweep."""
    from repro.experiments.report import format_sweep, format_table
    from repro.experiments.runner import Runner

    profile = get_profile(profile_name)
    if (workload_name == "specomp" and omp_schedule == "all"
            and not predict):
        # Per-policy comparison: one sweep per LoopSchedule, rendered
        # as one mean column per policy (the fig13 layout).
        from repro.workloads.specomp import (
            OMP_SCHEDULES,
            SpecOmpBenchmark,
        )
        runner = Runner(runs=profile.runs, backend=backend)
        sweeps = {
            policy: runner.run(
                SpecOmpBenchmark("swim", omp_schedule=policy))
            for policy in OMP_SCHEDULES
        }
        print(format_sweep(policies=sweeps))
        return
    workload = _sweep_workload(workload_name, profile, omp_schedule)
    runner = Runner(runs=profile.runs, backend=backend)
    if not predict:
        print(format_sweep(runner.run(workload)))
        return
    prediction = runner.predict_sweep(workload,
                                      spot_checks=spot_checks,
                                      tolerance=tolerance)
    fit = prediction.fit
    total = len(prediction.configs)
    print(f"{prediction.workload} — {prediction.primary_metric} "
          f"(USL analytic sweep; DESIGN.md §10)")
    print(f"fit: gamma={fit.gamma:.4g} sigma={fit.sigma:.4g} "
          f"kappa={fit.kappa:.4g} R^2={fit.r_squared:.4f}")
    spot = {check.config: check for check in prediction.spot_checks}
    rows = []
    for label, value in prediction.means().items():
        if label in prediction.measured:
            source = "simulated (anchor)"
        elif label in spot:
            check = spot[label]
            source = (f"predicted (spot-check: "
                      f"{check.relative_error:.1%} error)")
        else:
            source = "predicted"
        rows.append([label, f"{value:.2f}", source])
    print(format_table(["config", prediction.primary_metric,
                        "source"], rows))
    print(f"simulated {len(prediction.simulated_configs)} of {total} "
          f"configurations ({len(prediction.anchors)} anchors + "
          f"{len(prediction.spot_checks)} spot checks); gate "
          f"tolerance {prediction.tolerance:.1%}, worst spot error "
          f"{prediction.max_spot_error:.1%}")


_SERVICE_WORKLOADS = ("specjbb", "tpch", "lockstress", "specomp")


def _cmd_serve(args) -> int:
    """Run the scenario server until a drain completes."""
    import asyncio
    import logging
    import signal
    import tempfile

    from repro.experiments.parallel import ProcessPoolBackend
    from repro.service.cache import ResultCache
    from repro.service.server import ScenarioServer

    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    cache_dir = (args.cache_dir
                 or os.environ.get("REPRO_SERVICE_CACHE_DIR")
                 or tempfile.mkdtemp(prefix="repro-service-cache-"))
    cache = ResultCache(
        cache_dir,
        max_disk_entries=args.cache_max_entries,
        max_disk_bytes=args.cache_max_bytes)

    async def main() -> None:
        server = ScenarioServer(
            host=args.host, port=args.port, cache=cache,
            executor=ProcessPoolBackend(args.jobs),
            max_inflight=args.max_inflight,
            max_pending_tasks=args.max_pending,
            ledger_path=args.ledger)
        await server.start()
        ledger_note = f", ledger: {args.ledger}" if args.ledger else ""
        print(f"serving on {server.host}:{server.port} "
              f"(cache: {cache_dir}{ledger_note})", flush=True)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{server.port}\n")
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.request_shutdown)
        await server.serve_forever()

    asyncio.run(main())
    print("server drained and stopped", flush=True)
    return 0


def _read_port(args) -> int:
    """The submit target port: --port, or read from --port-file."""
    if args.port_file:
        deadline = time.monotonic() + args.connect_timeout
        while True:
            try:
                with open(args.port_file, encoding="utf-8") as handle:
                    text = handle.read().strip()
                if text:
                    return int(text)
            except FileNotFoundError:
                pass
            if time.monotonic() >= deadline:
                raise SystemExit(
                    f"no port in {args.port_file} after "
                    f"{args.connect_timeout:.0f}s")
            time.sleep(0.2)
    return args.port


def _connect_client(args):
    """A connected ServiceClient, retrying while the server starts."""
    from repro.service.client import ServiceClient

    port = _read_port(args)
    deadline = time.monotonic() + args.connect_timeout
    while True:
        client = ServiceClient(host=args.host, port=port,
                               timeout=args.timeout)
        try:
            client.connect()
            return client
        except OSError:
            client.close()
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)


def _print_stats(stats) -> None:
    """Render a ``stats`` response as aligned tables and charts."""
    from repro.experiments.report import format_histogram, format_table
    from repro.histogram import LatencyHistogram

    rows = [[name, f"{value:g}"]
            for name, value in sorted(stats["counters"].items())]
    print(format_table(["counter", "value"], rows))
    cache = stats.get("cache")
    if cache:
        bounds = []
        if cache.get("max_disk_entries") is not None:
            bounds.append(f"max {cache['max_disk_entries']} entries")
        if cache.get("max_disk_bytes") is not None:
            bounds.append(f"max {cache['max_disk_bytes']} bytes")
        bound = f" ({', '.join(bounds)})" if bounds else " (unbounded)"
        print(f"cache: {cache['disk_entries']} on disk, "
              f"{cache['disk_bytes']} bytes{bound}; "
              f"{cache['memory_entries']} of "
              f"{cache['max_memory_entries']} in memory")
    for name, payload in sorted((stats.get("latency") or {}).items()):
        histogram = LatencyHistogram.from_dict(payload)
        if histogram.count:
            print()
            print(format_histogram(name, histogram))
    ledger = stats.get("ledger") or {}
    print(f"pending_tasks={stats['pending_tasks']} "
          f"cache_entries={stats['cache_entries']} "
          f"ledger_records={ledger.get('records', 0)} "
          f"draining={stats['draining']}")


def _cmd_submit(args) -> int:
    """Submit a sweep (or stats/shutdown) to a running server."""
    from repro.experiments.report import format_sweep
    from repro.experiments.runner import ConfigSweep
    from repro.service.cache import result_from_payload
    from repro.service.registry import WORKLOADS

    client = _connect_client(args)
    try:
        if args.stats:
            _print_stats(client.stats())
            return 0
        if args.shutdown:
            ack = client.shutdown()
            print(f"shutdown acknowledged "
                  f"(draining {ack.get('draining', 0)} task(s))")
            return 0

        configs = ([label.strip()
                    for label in args.configs.split(",")
                    if label.strip()]
                   if args.configs else list(STANDARD_CONFIG_LABELS))
        params = json.loads(args.params) if args.params else {}
        options = {"scheduler": args.scheduler}
        if args.trace is not None:
            options["trace"] = sorted(
                _trace.parse_categories(args.trace))
        elif args.trace_out is not None:
            options["trace"] = sorted(_trace.DEFAULT_TRACE_CATEGORIES)
        if args.no_coalesce:
            options["coalesce"] = False
        response = client.sweep(
            args.workload, configs, runs=args.runs,
            base_seed=args.seed, params=params, **options)
    finally:
        client.close()

    results = [result_from_payload(payload)
               for payload in response.payloads]
    workload_cls = WORKLOADS[args.workload][0]
    sweep = ConfigSweep(workload=workload_cls.name,
                        primary_metric=workload_cls.primary_metric,
                        higher_is_better=workload_cls.higher_is_better)
    ordered = iter(results)
    for label in configs:
        sweep.results[label] = [next(ordered)
                                for _ in range(args.runs)]
    print(format_sweep(sweep))
    print(f"service: {response.tasks} task(s), "
          f"{response.cache_hits} cache hit(s), "
          f"{response.coalesced} coalesced, "
          f"{response.simulations_run} simulated")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump({"results": response.payloads}, handle,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(response.payloads)} result payload(s) "
              f"to {args.json_out}")
    if args.trace_out:
        count = _trace_export.write_chrome_trace(args.trace_out,
                                                 results)
        print(f"wrote {count} trace events to {args.trace_out}")
    if args.assert_cached and not response.fully_cached:
        print(f"ASSERTION FAILED: expected a fully cached response "
              f"but {response.simulations_run} task(s) simulated",
              file=sys.stderr)
        return 3
    return 0


def _cmd_validate() -> int:
    """Paper §3: validate the emulated asymmetry with micro-benchmarks."""
    print("duty-cycle validation (spin micro-benchmark per core):")
    for label in STANDARD_CONFIG_LABELS:
        machine = Machine.from_label(label)
        slowdowns = [f"{r.measured_slowdown:.2f}"
                     for r in run_microbenchmark(machine)]
        print(f"  {label:8s} per-core slowdowns: {', '.join(slowdowns)}")
    return 0


def _cmd_report(args) -> int:
    """Generate a per-workload performance report (md + JSON)."""
    from repro.analysis.perf_report import generate_report_files

    configs = ([label.strip() for label in args.configs.split(",")
                if label.strip()] if args.configs else None)
    params = json.loads(args.params) if args.params else None
    md_path, json_path = generate_report_files(
        args.workload, args.out_dir,
        configs=configs, runs=args.runs, base_seed=args.seed,
        jobs=args.jobs, params=params,
        stock_results=args.stock_results,
        asym_results=args.asym_results,
        ledger_path=args.ledger,
        bench_path=args.bench,
        bench_baseline_path=args.bench_baseline,
        golden_dir=args.golden_dir)
    print(f"wrote {md_path}")
    print(f"wrote {json_path}")
    return 0


def _default_bench_paths():
    """Committed BENCH trajectory/pin, when the checkout has them."""
    from pathlib import Path
    results = Path(__file__).resolve().parents[2] \
        / "benchmarks" / "results"
    engine = results / "BENCH_engine.json"
    baseline = results / "BENCH_baseline.json"
    return (str(engine) if engine.is_file() else None,
            str(baseline) if baseline.is_file() else None)


def _bench_comparison(bench_path: str, baseline_path: str):
    """Per-metric current/pinned/ratio rows for --metrics-out."""
    from repro.analysis.perf_report import compare_to_baseline

    if not bench_path or not baseline_path:
        return None
    try:
        with open(bench_path, encoding="utf-8") as handle:
            current = json.load(handle)
        with open(baseline_path, encoding="utf-8") as handle:
            pinned = json.load(handle)
    except (OSError, ValueError):
        return None
    return {"current_path": bench_path,
            "baseline_path": baseline_path,
            "comparison": compare_to_baseline(current, pinned)}


def _run_options(args) -> RunOptions:
    """The run context the flags ask for, announced on stdout."""
    trace = None
    if args.trace_out is not None:
        trace = (_trace.parse_categories(args.trace)
                 if args.trace is not None
                 else frozenset(_trace.DEFAULT_TRACE_CATEGORIES))
        print(f"tracing categories: {', '.join(sorted(trace))}")
    faults = None
    if args.faults is not None:
        faults = FaultSchedule.load(args.faults)
        summary = ", ".join(f"{kind}={count}" for kind, count
                            in sorted(faults.counts().items()))
        print(f"fault schedule: {len(faults)} events ({summary}) "
              f"from {args.faults}")
    if args.no_coalesce:
        print("quantum coalescing: disabled (per-quantum slicing)")
    return RunOptions(
        faults=faults, trace=trace,
        coalesce=False if args.no_coalesce else coalescing_enabled())


def _cmd_exhibits(name: str, profile_name: str,
                  backend: Backend) -> None:
    profile = get_profile(profile_name)
    names = list(ALL_EXHIBITS) if name == "all" else [name]
    for exhibit in names:
        print(f"== {exhibit} ".ljust(72, "="))
        ALL_EXHIBITS[exhibit].main(profile, backend=backend)
        print()


def _write_run_outputs(args, results) -> None:
    """``--metrics-out`` and ``--trace-out`` from every run's result."""
    if args.metrics_out is not None:
        payload = {"format": 1,
                   "records": [metrics_record(r) for r in results]}
        default_bench, default_baseline = _default_bench_paths()
        bench = _bench_comparison(args.bench or default_bench,
                                  args.bench_baseline
                                  or default_baseline)
        if bench is not None:
            payload["bench"] = bench
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        note = " (with bench baseline comparison)" if bench else ""
        print(f"wrote {len(results)} run metrics "
              f"records to {args.metrics_out}{note}")
    if args.trace_out is not None:
        traced = [r for r in results if r.trace is not None]
        count = _trace_export.write_chrome_trace(args.trace_out, traced)
        print(f"wrote {count} trace events for "
              f"{len(traced)} runs to {args.trace_out} "
              "(load in https://ui.perfetto.dev)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate exhibits of the ISCA 2005 asymmetry "
                    "paper reproduction.")
    parser.add_argument("exhibit",
                        help="exhibit name (fig01..fig13, table1), "
                             "'all', 'list', 'validate', 'sweep' "
                             "(one workload's config sweep; see "
                             "--workload/--predict), 'serve' (run "
                             "the scenario server), 'submit' "
                             "(send a sweep to a running server) or "
                             "'report' (render a per-workload "
                             "performance report)")
    parser.add_argument("--workload", default="specjbb",
                        choices=sorted(set(_SWEEP_WORKLOADS)
                                       | set(_SERVICE_WORKLOADS)),
                        help="workload for the 'sweep' and 'submit' "
                             "commands (default: specjbb; "
                             "'lockstress' is submit-only)")
    parser.add_argument("--omp-schedule", default="all",
                        choices=("static", "dynamic", "guided",
                                 "static_weighted", "stealing", "all"),
                        help="with 'sweep --workload specomp': loop "
                             "schedule forced onto every parallel "
                             "loop; 'all' (default) sweeps every "
                             "policy and renders one column per "
                             "schedule")
    parser.add_argument("--predict", action="store_true",
                        help="with 'sweep': simulate only the USL "
                             "anchor configurations and interpolate "
                             "the rest (repro.analysis.usl), "
                             "spot-checking the model against "
                             "--spot-checks real simulations")
    parser.add_argument("--spot-checks", type=int, default=1,
                        metavar="K",
                        help="predicted configurations to "
                             "spot-simulate as a validation gate "
                             "(default: 1; 0 disables the gate)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        metavar="FRAC",
                        help="maximum relative error a spot check "
                             "may show before the prediction gate "
                             "fails (default: 0.10)")
    parser.add_argument("--profile", default="quick",
                        choices=("quick", "paper"),
                        help="experiment scale (default: quick)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="worker processes for simulation runs "
                             "(default: 0). Exhibits, 'sweep' and "
                             "'report' run serially at 0 or 1; "
                             "'serve' always starts a pool, one "
                             "worker per CPU at 0. Results are "
                             "identical either way")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write per-run simulation metrics "
                             "(RunMetrics JSON) for every run the "
                             "exhibit or sweep executes to PATH")
    parser.add_argument("--faults", metavar="SCHEDULE.json",
                        default=None,
                        help="inject the fault schedule (throttle/"
                             "offline/stall events; see repro.faults) "
                             "into every run of the exhibit or sweep")
    parser.add_argument("--trace-out", metavar="TRACE.json",
                        default=None,
                        help="export a Chrome trace-event / Perfetto "
                             "timeline of every run the exhibit or "
                             "sweep executes to TRACE.json")
    parser.add_argument("--trace", metavar="CATEGORIES", default=None,
                        help="comma-separated trace categories for "
                             "--trace-out (default: "
                             f"{','.join(_trace.DEFAULT_TRACE_CATEGORIES)})")
    parser.add_argument("--no-coalesce", action="store_true",
                        help="disable the kernel's quantum-coalescing "
                             "fast path and simulate every timeslice "
                             "individually (slower; results are "
                             "byte-identical either way)")
    service = parser.add_argument_group(
        "service options (the 'serve' and 'submit' commands)")
    service.add_argument("--host", default="127.0.0.1",
                         help="bind/connect address "
                              "(default: 127.0.0.1)")
    service.add_argument("--port", type=int, default=7070,
                         help="server port; 0 asks the OS for a free "
                              "one (default: 7070)")
    service.add_argument("--port-file", metavar="PATH", default=None,
                         help="serve: write the bound port to PATH; "
                              "submit: read the port from PATH, "
                              "waiting up to --connect-timeout")
    service.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="serve: persistent result cache "
                              "directory (default: "
                              "$REPRO_SERVICE_CACHE_DIR or a fresh "
                              "temporary directory)")
    service.add_argument("--max-inflight", type=int, default=4,
                         metavar="N",
                         help="serve: concurrent simulation batches "
                              "(default: 4)")
    service.add_argument("--max-pending", type=int, default=256,
                         metavar="N",
                         help="serve: admission-control cap on queued "
                              "tasks; excess requests get a "
                              "structured 'overloaded' rejection "
                              "(default: 256)")
    service.add_argument("--cache-max-entries", type=int,
                         default=None, metavar="N",
                         help="serve: bound the disk cache tier to N "
                              "result files, evicting least-recently "
                              "used (default: unbounded)")
    service.add_argument("--cache-max-bytes", type=int,
                         default=None, metavar="BYTES",
                         help="serve: bound the disk cache tier's "
                              "total payload bytes "
                              "(default: unbounded)")
    service.add_argument("--ledger", metavar="PATH", default=None,
                         help="serve: append one JSONL run-ledger "
                              "record per request to PATH; "
                              "report: summarize the ledger at PATH "
                              "into the report's service section")
    service.add_argument("--configs", metavar="LABELS", default=None,
                         help="submit: comma-separated config labels "
                              "(default: the standard sweep)")
    service.add_argument("--runs", type=int, default=2, metavar="N",
                         help="submit: runs per configuration "
                              "(default: 2)")
    service.add_argument("--seed", type=int, default=100,
                         help="submit: base seed; run i uses "
                              "seed+i (default: 100)")
    service.add_argument("--params", metavar="JSON", default=None,
                         help="submit: workload parameter overrides "
                              "as a JSON object")
    service.add_argument("--scheduler", default="stock",
                         choices=("stock", "asym"),
                         help="submit: scheduler to simulate "
                              "(default: stock)")
    service.add_argument("--json-out", metavar="PATH", default=None,
                         help="submit: write raw result payloads "
                              "(canonical JSON) to PATH")
    service.add_argument("--assert-cached", action="store_true",
                         help="submit: exit 3 unless the response "
                              "was served entirely from cache "
                              "(simulations_run == 0)")
    service.add_argument("--stats", action="store_true",
                         help="submit: print server counters instead "
                              "of running a sweep")
    service.add_argument("--shutdown", action="store_true",
                         help="submit: ask the server to drain "
                              "in-flight work and stop")
    service.add_argument("--connect-timeout", type=float,
                         default=30.0, metavar="SECONDS",
                         help="submit: how long to wait for the "
                              "server to come up (default: 30)")
    service.add_argument("--timeout", type=float, default=300.0,
                         metavar="SECONDS",
                         help="submit: per-request socket timeout "
                              "(default: 300)")
    report = parser.add_argument_group(
        "report options (the 'report' command; also --metrics-out)")
    report.add_argument("--out-dir", metavar="DIR", default="reports",
                        help="report: directory receiving "
                             "report_<workload>.{md,json} "
                             "(default: reports)")
    report.add_argument("--stock-results", metavar="PATH",
                        default=None,
                        help="report: stock-scheduler result payloads "
                             "from 'submit --json-out' instead of "
                             "simulating locally (requires "
                             "--asym-results)")
    report.add_argument("--asym-results", metavar="PATH",
                        default=None,
                        help="report: asym-scheduler result payloads "
                             "from 'submit --json-out' (requires "
                             "--stock-results)")
    report.add_argument("--bench", metavar="PATH", default=None,
                        help="report/--metrics-out: current benchmark "
                             "trajectory JSON (default: the "
                             "checkout's BENCH_engine.json for "
                             "--metrics-out)")
    report.add_argument("--bench-baseline", metavar="PATH",
                        default=None,
                        help="report/--metrics-out: pinned benchmark "
                             "baseline JSON (default: the checkout's "
                             "BENCH_baseline.json for --metrics-out)")
    report.add_argument("--golden-dir", metavar="DIR", default=None,
                        help="report: golden fixture directory whose "
                             "metadata the report lists "
                             "(e.g. tests/golden)")
    args = parser.parse_args(argv)
    if args.trace is not None and args.trace_out is None:
        parser.error("--trace requires --trace-out")
    if args.exhibit == "list":
        return _cmd_list()
    if args.exhibit == "validate":
        return _cmd_validate()
    if args.exhibit == "serve":
        return _cmd_serve(args)
    if args.exhibit == "submit":
        return _cmd_submit(args)
    if args.exhibit == "report":
        return _cmd_report(args)
    if args.exhibit == "sweep":
        if args.workload not in _SWEEP_WORKLOADS:
            parser.error(
                f"--workload {args.workload} is service-only; "
                f"'sweep' supports {', '.join(_SWEEP_WORKLOADS)}")
        if args.predict and args.workload == "specomp" \
                and args.omp_schedule == "all":
            parser.error("--predict fits one schedule at a time; "
                         "pick one with --omp-schedule")
    elif args.exhibit != "all" and args.exhibit not in ALL_EXHIBITS:
        print(f"unknown exhibit {args.exhibit!r}; try 'list'",
              file=sys.stderr)
        return 2
    # One backend per invocation (with --jobs N, one warm pool): its
    # options go on every task, and its result list feeds
    # --metrics-out and --trace-out.
    results = []
    backend = make_backend(args.jobs, options=_run_options(args),
                           sink=results)
    try:
        if args.exhibit == "sweep":
            _cmd_sweep(args.workload, args.profile, args.predict,
                       backend, spot_checks=args.spot_checks,
                       tolerance=args.tolerance,
                       omp_schedule=args.omp_schedule)
        else:
            _cmd_exhibits(args.exhibit, args.profile, backend)
    finally:
        backend.shutdown()
    _write_run_outputs(args, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
