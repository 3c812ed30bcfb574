"""Simulator microbenchmarks: how fast does the substrate itself run?

These are conventional pytest-benchmark timings (multiple rounds) of
the discrete-event core and the kernel dispatch path — useful when
optimizing the simulator, and a canary for accidental slowdowns.

Besides the human-readable pytest-benchmark table, every test here
deposits a machine-readable measurement (events/sec, sweep wall
times) into ``benchmarks/results/BENCH_engine.json`` via the
``bench_json`` fixture, so CI and optimization work can diff numbers
across commits.
"""

import gc
import json
import os
import statistics
import time

import pytest

from repro import System
from repro.experiments.runner import Runner
from repro.kernel import Compute, SimThread
from repro.sim import Simulator
from repro.workloads.tpch import TpchQuery

import seed_engine

#: Paired rounds of the seed-speedup measurement: each round times the
#: seed's engine (``seed_engine.py``) and today's once each, in
#: alternating order, and ``speedup_vs_seed`` is the median of the
#: per-round ratios.  The median, because single rounds scatter: on a
#: 2-CPU VM one set of 15 read 1.1x to 2.5x around a median of 1.7x.
SEED_ROUNDS = 15

_MEASUREMENTS = {}


@pytest.fixture(scope="module", autouse=True)
def bench_json(results_dir):
    """Collects per-test measurements, written out once at module end."""
    yield _MEASUREMENTS
    payload = {"host_cpus": os.cpu_count()}
    payload.update(_MEASUREMENTS)
    path = results_dir / "BENCH_engine.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                    + "\n")


def _best_seconds(fn, repeats=9):
    """Best-of-N wall time — robust against --benchmark-disable runs.

    Runs with the cyclic collector off (after clearing existing debt):
    a generation-2 collection landing inside the timed region scans
    every object the host process has accumulated — under a full
    pytest session that skews later benchmarks by tens of percent
    depending on execution order.
    """
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def test_event_queue_throughput(benchmark):
    """Schedule-and-fire cost of bare (cancellable) simulator events,
    and its speedup over the seed commit's engine on the same host."""

    def run(simulator=Simulator):
        sim = simulator()
        for i in range(5000):
            sim.schedule(i * 1e-6, lambda: None)
        sim.run()
        return sim.events_fired

    def seed_run():
        return run(seed_engine.Simulator)

    fired = benchmark(run)
    assert fired == 5000
    assert seed_run() == 5000
    best = _best_seconds(run)
    ratios = []
    for index in range(SEED_ROUNDS):
        if index % 2:
            today = _best_seconds(run, repeats=1)
            seed = _best_seconds(seed_run, repeats=1)
        else:
            seed = _best_seconds(seed_run, repeats=1)
            today = _best_seconds(run, repeats=1)
        ratios.append(seed / today)
    _MEASUREMENTS["event_queue"] = {
        "events": 5000,
        "best_seconds": best,
        "events_per_sec": 5000 / best,
        "seed_rounds": SEED_ROUNDS,
        "speedup_vs_seed": statistics.median(ratios),
    }


def test_event_queue_fast_path_throughput(benchmark):
    """The uncancellable fast path: no Event allocation at all."""

    def run():
        sim = Simulator()
        for i in range(5000):
            sim.schedule_fast(i * 1e-6, lambda: None)
        sim.run()
        return sim.events_fired

    fired = benchmark(run)
    assert fired == 5000
    best = _best_seconds(run)
    _MEASUREMENTS["event_queue_fast_path"] = {
        "events": 5000,
        "best_seconds": best,
        "events_per_sec": 5000 / best,
    }


def test_kernel_timeslicing_throughput(benchmark):
    """Dispatch + preemption cost: 8 threads timesharing 4 cores."""

    def run():
        system = System.build("2f-2s/8", seed=1)
        for i in range(8):
            system.kernel.spawn(SimThread(f"t{i}", _spin(2.8e9)))
        system.run()
        return system.sim.events_fired

    fired = benchmark(run)
    assert fired > 0
    best = _best_seconds(run)
    _MEASUREMENTS["kernel_timeslicing"] = {
        "events": fired,
        "best_seconds": best,
        "events_per_sec": fired / best,
    }


def _spin(cycles):
    yield Compute(cycles)


def test_kernel_timeslicing_coalesced_throughput(benchmark):
    """Quantum coalescing on the uncontended regime: one thread per
    core, so every quantum boundary is a no-op the macro fast path can
    elide.  Records both modes of the *same* workload; the regression
    guard enforces the event-reduction and speedup floors and that the
    two modes agree (they must be byte-identical — tested exhaustively
    in tests/test_coalescing.py; here we only keep the counts honest).
    """

    def run_mode(coalesce):
        system = System.build("2f-2s/8", seed=1, coalesce=coalesce)
        for i in range(4):
            system.kernel.spawn(SimThread(f"t{i}", _spin(2.8e9)))
        system.run()
        return system.sim.events_fired

    coalesced_events = benchmark(lambda: run_mode(True))
    sliced_events = run_mode(False)
    assert coalesced_events < sliced_events
    coalesced_best = _best_seconds(lambda: run_mode(True))
    sliced_best = _best_seconds(lambda: run_mode(False))
    _MEASUREMENTS["kernel_timeslicing_coalesced"] = {
        "threads": 4,
        "coalesced_events": coalesced_events,
        "sliced_events": sliced_events,
        "coalesced_best_seconds": coalesced_best,
        "sliced_best_seconds": sliced_best,
        "event_reduction": sliced_events / coalesced_events,
        "speedup": sliced_best / coalesced_best,
    }


def test_kernel_timeslicing_traced_throughput(benchmark):
    """The same dispatch benchmark with every trace category enabled.

    Pins two properties of the span layer: tracing schedules **no**
    events of its own — the count matches the untraced run exactly
    (checked here and again by ``check_engine_regression.py``) — and
    the enabled-tracing cost is measured so the overhead table in
    DESIGN.md §8 stays honest.
    """
    from repro.sim.trace import DEFAULT_TRACE_CATEGORIES

    def run(traced=True):
        system = System.build("2f-2s/8", seed=1)
        if traced:
            system.sim.tracer.enable(*DEFAULT_TRACE_CATEGORIES)
        for i in range(8):
            system.kernel.spawn(SimThread(f"t{i}", _spin(2.8e9)))
        system.run()
        return system.sim.events_fired

    fired = benchmark(run)
    assert fired == run(traced=False), \
        "tracing scheduled events of its own"
    best = _best_seconds(run, repeats=5)
    _MEASUREMENTS["kernel_timeslicing_traced"] = {
        "events": fired,
        "best_seconds": best,
        "events_per_sec": fired / best,
        "categories": sorted(DEFAULT_TRACE_CATEGORIES),
    }


def test_synchronization_throughput(benchmark):
    """Lock/unlock round trips through the kernel."""
    from repro.kernel import Lock, Mutex, Unlock

    def run():
        system = System.build("4f-0s", seed=1)
        mutex = Mutex("m")

        def body():
            for _ in range(500):
                yield Lock(mutex)
                yield Compute(1000)
                yield Unlock(mutex)

        for i in range(4):
            system.kernel.start(f"t{i}", body())
        return system.run()

    elapsed = benchmark(run)
    assert elapsed > 0


def test_lock_handoff_throughput(benchmark):
    """Contended handoff cost per lock kind (DESIGN.md §11).

    Eight threads hammer one shared lock on the asymmetric machine —
    the regime where the handoff policy actually runs (blocking
    wake-up versus spin re-check versus speed-aware successor pick).
    Per-kind acquisition counts are deterministic and pinned by the
    regression guard; the wall time per acquisition is the cost the
    lock layer adds to the dispatch path.
    """
    from repro.workloads.lockstress import LockStress

    def run_kind(kind):
        return LockStress(n_threads=8, lock_kind=kind,
                          duration=0.3).run_once("2f-2s/8", seed=1)

    kinds = {}
    for kind in ("fifo", "spin", "mcs", "asym"):
        result = run_kind(kind)
        counters = result.run_metrics.counters
        acquisitions = counters.get("lock.acquisitions", 0.0)
        assert acquisitions > 0
        best = _best_seconds(lambda k=kind: run_kind(k), repeats=3)
        kinds[kind] = {
            "acquisitions": acquisitions,
            "contended": counters.get("lock.contended", 0.0),
            "best_seconds": best,
            "acquisitions_per_sec": acquisitions / best,
        }
    benchmark(lambda: run_kind("asym"))
    _MEASUREMENTS["lock_handoff"] = {
        "config": "2f-2s/8",
        "threads": 8,
        "kinds": kinds,
    }


def test_omp_scheduling_throughput(benchmark):
    """Per-policy makespan of the OpenMP loop runtime (DESIGN.md §14).

    One swim run per ``LoopSchedule`` on the 2f-2s/8 reference
    machine.  The simulated makespans and chunk counts are
    deterministic and pinned exactly by the regression guard; the
    guard also enforces a floor — ``static_weighted`` at least 1.3x
    faster than ``static`` in simulated time (measured ~4.3x).  Wall
    time per policy is recorded so scheduling-path slowdowns in the
    *simulator* show up too.
    """
    from repro.workloads.specomp import OMP_SCHEDULES, SpecOmpBenchmark

    def run_policy(policy):
        return SpecOmpBenchmark(
            "swim", omp_schedule=policy).run_once("2f-2s/8", seed=1)

    policies = {}
    for policy in OMP_SCHEDULES:
        result = run_policy(policy)
        counters = result.run_metrics.counters
        best = _best_seconds(lambda p=policy: run_policy(p), repeats=3)
        policies[policy] = {
            "makespan_seconds": result.metrics["runtime"],
            "chunks_dispatched": counters.get(
                "omp.chunks_dispatched", 0.0),
            "best_seconds": best,
        }
    benchmark(lambda: run_policy("static_weighted"))
    _MEASUREMENTS["omp_scheduling"] = {
        "benchmark": "swim",
        "config": "2f-2s/8",
        "policies": policies,
    }


def test_runner_fanout_throughput(benchmark):
    """Wall time of a Runner sweep: serial vs. fanned-out workers.

    The fan-out must never change the sweep's contents; the speedup
    assertion is gated on host core count — on a single-core runner
    the pool only adds overhead (and that, too, is worth recording).
    """
    configs = ["4f-0s", "2f-2s/8"]
    workload = TpchQuery(3, parallel_degree=4, optimization_degree=7)

    def sweep_serial():
        return Runner(configs=configs, runs=2, jobs=1).run(workload)

    serial_sweep = benchmark(sweep_serial)
    serial_time = _best_seconds(sweep_serial, repeats=3)

    jobs = min(4, os.cpu_count() or 1)
    parallel_runner = Runner(configs=configs, runs=2, jobs=jobs)

    def sweep_parallel():
        return parallel_runner.run(workload)

    start = time.perf_counter()
    parallel_sweep = sweep_parallel()
    parallel_time = min(time.perf_counter() - start,
                        _best_seconds(sweep_parallel, repeats=2))

    def contents(sweep):
        return {label: [sorted(run.metrics.items()) for run in runs]
                for label, runs in sweep.results.items()}

    assert contents(serial_sweep) == contents(parallel_sweep)

    speedup = serial_time / parallel_time
    _MEASUREMENTS["runner_fanout"] = {
        "configs": configs,
        "runs_per_config": 2,
        "jobs": jobs,
        "serial_seconds": serial_time,
        "parallel_seconds": parallel_time,
        "speedup": speedup,
    }
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 1.5, (
            f"expected >=1.5x fan-out speedup on a "
            f"{os.cpu_count()}-core host, got {speedup:.2f}x")
