"""Command-line entry point: regenerate paper exhibits.

Usage::

    python -m repro list                  # available exhibits
    python -m repro fig04                 # regenerate one exhibit
    python -m repro all                   # regenerate everything
    python -m repro fig08 --profile paper # full protocol
    python -m repro all --jobs 4          # fan runs out over 4 workers
    python -m repro validate              # machine self-check
    python -m repro fig01 --trace-out t.json   # Perfetto timeline
    python -m repro serve --port 7070 --cache-dir /var/cache/repro
    python -m repro submit --port 7070 --workload specjbb --runs 2
    python -m repro report --workload specjbb --out-dir reports
    python -m repro sweep --help          # the flags 'sweep' accepts

Each command accepts only the flags it reads, and every exhibit name
is an alias of ``all`` that regenerates just that exhibit.
``--jobs N`` parallelizes the independent simulation runs over N
worker processes; results are bit-identical to a serial run.
``--trace-out`` exports a Chrome trace-event timeline of every run;
open it in https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from repro.errors import ReproError
from repro.faults import FaultSchedule
from repro.metrics import metrics_record
from repro.sim import trace as _trace
from repro.sim import trace_export as _trace_export
from repro.experiments.figures import ALL_EXHIBITS
from repro.experiments.parallel import make_backend
from repro.experiments.profiles import get_profile
from repro.machine import (
    Machine,
    STANDARD_CONFIG_LABELS,
    run_microbenchmark,
)
from repro.service.cache import ResultCache
from repro.service.registry import WORKLOADS
from repro.workloads.base import RunOptions
from repro.workloads.specomp import OMP_SCHEDULES


def _cmd_list(args) -> int:
    """List the exhibits."""
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
        return SpecJBB(measurement_seconds=profile.specjbb_measurement)
    if name == "specomp":
        from repro.workloads.specomp import SpecOmpBenchmark
        schedule = None if omp_schedule == "all" else omp_schedule
        return SpecOmpBenchmark("swim", omp_schedule=schedule)
    from repro.workloads.tpch.workload import TpchPowerRun
    return TpchPowerRun(parallel_degree=4, optimization_degree=7,
                        queries=list(profile.tpch_queries))


def _cmd_sweep(args) -> int:
    """Run one workload's config sweep."""
    from repro.experiments.report import format_sweep
    from repro.experiments.runner import Runner

    profile = get_profile(args.profile)
    with _local_backend(args) as backend:
        runner = Runner(runs=profile.runs, backend=backend)
        if args.workload == "specomp" and args.omp_schedule == "all":
            # Per-policy comparison: one sweep per LoopSchedule,
            # rendered as one mean column per policy (the fig13
            # layout).
            from repro.workloads.specomp import SpecOmpBenchmark
            print(format_sweep(policies={
                policy: runner.run(
                    SpecOmpBenchmark("swim", omp_schedule=policy))
                for policy in OMP_SCHEDULES
            }))
        else:
            print(format_sweep(runner.run(_sweep_workload(
                args.workload, profile, args.omp_schedule))))
    return 0


def _cmd_serve(args) -> int:
    """Run the scenario server until a drain completes."""
    import asyncio
    import logging
    import signal
    import tempfile

    from repro.experiments.parallel import ProcessPoolBackend
    from repro.service.server import ScenarioServer

    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    cache_dir = (args.cache_dir
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


def _connect(client, connect_timeout: float) -> None:
    """Connect ``client``, retrying while the server starts."""
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            client.connect()
            return
        except OSError:
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
    from repro.analysis.perf_report import sweep_from_payloads
    from repro.experiments.report import format_sweep
    from repro.service.client import ServiceClient, ServiceError

    port = _read_port(args)
    client = ServiceClient(host=args.host, port=port,
                           timeout=args.timeout)
    try:
        _connect(client, args.connect_timeout)
        if args.stats:
            _print_stats(client.stats())
            return 0
        if args.shutdown:
            ack = client.shutdown()
            print(f"shutdown acknowledged "
                  f"(draining {ack.get('draining', 0)} task(s))")
            return 0

        configs = args.configs or list(STANDARD_CONFIG_LABELS)
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
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach server at {args.host}:{port}: "
              f"{exc}", file=sys.stderr)
        return 1
    finally:
        client.close()

    sweep = sweep_from_payloads(args.workload, response.payloads)
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
                                                 sweep.all_results())
        print(f"wrote {count} trace events to {args.trace_out}")
    if args.assert_cached and not response.fully_cached:
        print(f"ASSERTION FAILED: expected a fully cached response "
              f"but {response.simulations_run} task(s) simulated",
              file=sys.stderr)
        return 3
    return 0


def _cmd_validate(args) -> int:
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

    params = json.loads(args.params) if args.params else None
    backend = make_backend(args.jobs)
    try:
        md_path, json_path = generate_report_files(
            args.workload, args.out_dir,
            configs=args.configs, runs=args.runs, base_seed=args.seed,
            backend=backend, params=params,
            stock_results=args.stock_results,
            asym_results=args.asym_results,
            ledger_path=args.ledger,
            golden_dir=args.golden_dir)
    finally:
        backend.shutdown()
    print(f"wrote {md_path}")
    print(f"wrote {json_path}")
    return 0


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
        return RunOptions(faults=faults, trace=trace, coalesce=False)
    return RunOptions(faults=faults, trace=trace)


@contextlib.contextmanager
def _local_backend(args):
    """The invocation's one backend (with --jobs N, one warm pool).

    Its options go on every task; when the command succeeds, its
    result list feeds --metrics-out and --trace-out.  For ``all``, the
    one command that repeats tasks (table1 re-runs fig10's sweeps,
    fig10 those of fig02-fig09), an unbounded memory cache serves a
    task the invocation already ran, unless the runs are traced: a
    traced result's cached text would hold its whole timeline twice.
    """
    options = _run_options(args)
    cache = (ResultCache(max_memory_entries=None)
             if args.command == "all" and options.trace is None
             else None)
    results = []
    backend = make_backend(args.jobs, cache=cache, options=options,
                           sink=results)
    try:
        yield backend
    finally:
        backend.shutdown()
    _write_run_outputs(args, results)


def _cmd_exhibits(args) -> int:
    """Regenerate every exhibit, or the one named (fig01..table1).

    A model error (say, a fault schedule that leaves a pinned thread
    no online core) ends the command with exit status 1 and one
    ``error: EXHIBIT: TYPE: MESSAGE`` line on stderr, and writes no
    run outputs.
    """
    exhibit = args.command
    try:
        with _local_backend(args) as backend:
            profile = get_profile(args.profile)
            names = (list(ALL_EXHIBITS) if args.command == "all"
                     else [args.command])
            for exhibit in names:
                module = ALL_EXHIBITS[exhibit]
                print(f"== {exhibit} ".ljust(72, "="))
                print(module.render(module.run(profile, backend=backend)))
                print()
    except ReproError as exc:
        print(f"error: {exhibit}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    return 0


def _write_run_outputs(args, results) -> None:
    """``--metrics-out`` and ``--trace-out`` from every run's result."""
    if args.metrics_out is not None:
        payload = {"format": 1,
                   "records": [metrics_record(r) for r in results]}
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(results)} run metrics "
              f"records to {args.metrics_out}")
    if args.trace_out is not None:
        traced = [r for r in results if r.trace is not None]
        count = _trace_export.write_chrome_trace(args.trace_out, traced)
        print(f"wrote {count} trace events for "
              f"{len(traced)} runs to {args.trace_out} "
              "(load in https://ui.perfetto.dev)")


def _config_labels(text: str) -> list[str]:
    """``--configs``: comma-separated machine configuration labels."""
    return [label.strip() for label in text.split(",") if label.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate exhibits of the ISCA 2005 asymmetry "
                    "paper reproduction.",
        epilog="'python -m repro COMMAND --help' lists the flags "
               "COMMAND accepts.")
    # Flags shared by several commands, one parent parser per group.
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=0, metavar="N",
                      help="worker processes for simulation runs "
                           "(default: 0); 0 or 1 runs serially. "
                           "Results are identical either way")
    local = argparse.ArgumentParser(add_help=False, parents=[jobs])
    local.add_argument("--profile", default="quick",
                       choices=("quick", "paper"),
                       help="experiment scale (default: quick)")
    local.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write per-run simulation metrics "
                            "(RunMetrics JSON) for every run the "
                            "command executes to PATH")
    local.add_argument("--faults", metavar="SCHEDULE.json",
                       default=None,
                       help="inject the fault schedule (throttle/"
                            "offline/stall events; see repro.faults) "
                            "into every run")
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace-out", metavar="TRACE.json",
                        default=None,
                        help="export a Chrome trace-event / Perfetto "
                             "timeline of every run to TRACE.json")
    traced.add_argument("--trace", metavar="CATEGORIES", default=None,
                        help="comma-separated trace categories for "
                             "--trace-out (default: "
                             f"{','.join(_trace.DEFAULT_TRACE_CATEGORIES)})")
    traced.add_argument("--no-coalesce", action="store_true",
                        help="disable the kernel's quantum-coalescing "
                             "fast path and simulate every timeslice "
                             "individually (slower; results are "
                             "byte-identical either way)")
    address = argparse.ArgumentParser(add_help=False)
    address.add_argument("--host", default="127.0.0.1",
                         help="server address (default: 127.0.0.1)")
    address.add_argument("--port", type=int, default=7070,
                         help="server port (default: 7070)")
    request = argparse.ArgumentParser(add_help=False)
    request.add_argument("--workload", default="specjbb",
                         choices=sorted(WORKLOADS),
                         help="workload to sweep (default: specjbb)")
    request.add_argument("--configs", metavar="LABELS", default=None,
                         type=_config_labels,
                         help="comma-separated config labels "
                              "(default: the standard sweep)")
    request.add_argument("--runs", type=int, default=2, metavar="N",
                         help="runs per configuration (default: 2)")
    request.add_argument("--seed", type=int, default=100,
                         help="base seed; run i uses seed+i "
                              "(default: 100)")
    request.add_argument("--params", metavar="JSON", default=None,
                         help="workload parameter overrides as a "
                              "JSON object")

    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")

    def command(name, handler, *parents, aliases=()):
        summary = (handler.__doc__ or "").partition("\n")[0]
        sub = commands.add_parser(name, parents=parents,
                                  aliases=aliases, help=summary,
                                  description=summary)
        sub.set_defaults(handler=handler)
        return sub

    command("list", _cmd_list)
    command("validate", _cmd_validate)
    command("all", _cmd_exhibits, local, traced,
            aliases=list(ALL_EXHIBITS))

    sweep = command("sweep", _cmd_sweep, local, traced)
    sweep.add_argument("--workload", default="specjbb",
                       choices=_SWEEP_WORKLOADS,
                       help="workload to sweep (default: specjbb)")
    sweep.add_argument("--omp-schedule", default="all",
                       choices=(*OMP_SCHEDULES, "all"),
                       help="with --workload specomp: loop schedule "
                            "forced onto every parallel loop; 'all' "
                            "(default) sweeps every policy and "
                            "renders one column per schedule")

    serve = command("serve", _cmd_serve, address)
    serve.add_argument("--jobs", type=int, default=0, metavar="N",
                       help="worker processes in the server's pool, "
                            "which always starts (default: 0, one "
                            "per CPU)")
    serve.add_argument("--port-file", metavar="PATH", default=None,
                       help="write the bound port to PATH (with "
                            "--port 0 the OS picks a free one)")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persistent result cache directory "
                            "(default: a fresh temporary directory)")
    serve.add_argument("--max-inflight", type=int, default=4,
                       metavar="N",
                       help="concurrent simulation batches "
                            "(default: 4)")
    serve.add_argument("--max-pending", type=int, default=256,
                       metavar="N",
                       help="admission-control cap on queued tasks; "
                            "excess requests get a structured "
                            "'overloaded' rejection (default: 256)")
    serve.add_argument("--cache-max-entries", type=int, default=None,
                       metavar="N",
                       help="bound the disk cache tier to N result "
                            "files, evicting least-recently used "
                            "(default: unbounded)")
    serve.add_argument("--cache-max-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="bound the disk cache tier's total "
                            "payload bytes (default: unbounded)")
    serve.add_argument("--ledger", metavar="PATH", default=None,
                       help="append one JSONL run-ledger record per "
                            "request to PATH")

    submit = command("submit", _cmd_submit, address, request, traced)
    submit.add_argument("--port-file", metavar="PATH", default=None,
                        help="read the port from PATH (as 'serve "
                             "--port-file' writes it), waiting up to "
                             "--connect-timeout")
    submit.add_argument("--scheduler", default="stock",
                        choices=("stock", "asym"),
                        help="scheduler to simulate (default: stock)")
    submit.add_argument("--json-out", metavar="PATH", default=None,
                        help="write raw result payloads (canonical "
                             "JSON) to PATH")
    submit.add_argument("--assert-cached", action="store_true",
                        help="exit 3 unless the response was served "
                             "entirely from cache "
                             "(simulations_run == 0)")
    submit.add_argument("--stats", action="store_true",
                        help="print server counters instead of "
                             "running a sweep")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the server to drain in-flight work "
                             "and stop")
    submit.add_argument("--connect-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="how long to wait for the server to come "
                             "up (default: 30)")
    submit.add_argument("--timeout", type=float, default=300.0,
                        metavar="SECONDS",
                        help="per-request socket timeout "
                             "(default: 300)")

    report = command("report", _cmd_report, request, jobs)
    report.add_argument("--out-dir", metavar="DIR", default="reports",
                        help="directory receiving "
                             "report_<workload>.{md,json} "
                             "(default: reports)")
    report.add_argument("--stock-results", metavar="PATH",
                        default=None,
                        help="stock-scheduler result payloads from "
                             "'submit --json-out' instead of "
                             "simulating locally (requires "
                             "--asym-results)")
    report.add_argument("--asym-results", metavar="PATH",
                        default=None,
                        help="asym-scheduler result payloads from "
                             "'submit --json-out' (requires "
                             "--stock-results)")
    report.add_argument("--ledger", metavar="PATH", default=None,
                        help="summarize the service run ledger at "
                             "PATH into the report's service section")
    report.add_argument("--golden-dir", metavar="DIR", default=None,
                        help="golden fixture directory whose "
                             "metadata the report lists "
                             "(e.g. tests/golden)")

    # Unknown flags are reported against the command's own usage line.
    args, unknown = parser.parse_known_args(argv)
    chosen = commands.choices[args.command]
    if unknown:
        chosen.error(f"unrecognized arguments: {' '.join(unknown)}")
    if getattr(args, "trace", None) is not None and args.trace_out is None:
        chosen.error("--trace requires --trace-out")
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
