"""Simulator microbenchmarks: how fast does the substrate itself run?

Each test runs one path of the discrete-event core, the kernel or the
runner, and asserts its own gates.  The simulations are deterministic,
so their counts are pinned exactly: drift means behaviour changed, not
just speed.  Raw seconds are incomparable across hosts, so every timing
gate is a floor on the ratio of two paths timed in the same process by
:func:`paired_ratio`.

Run with ``PYTHONPATH=src python -m pytest
benchmarks/test_engine_throughput.py -q``.
"""

import gc
import os
import statistics
import time

from repro import System
from repro.experiments.parallel import ProcessPoolBackend, SerialBackend
from repro.experiments.runner import Runner
from repro.kernel import Compute, SimThread
from repro.sim import Simulator
from repro.sim.trace import DEFAULT_TRACE_CATEGORIES
from repro.workloads.tpch import TpchQuery

import seed_engine

#: Paired rounds per timing gate.  The median, because single rounds
#: scatter: on a 2-CPU VM one set of 15 seed-speedup rounds read 1.1x
#: to 2.5x around a median of 1.7x.
ROUNDS = 15

#: Events fired by the bare event-queue benchmark.
QUEUE_EVENTS = 5000
#: Events fired by the kernel-timeslicing benchmark (8 threads, 4 cores).
KERNEL_EVENTS = 7203
#: Kernel over bare-queue events/s, each best of 9, on a 2-CPU VM.
DISPATCH_RATIO_PIN = 390476.8322196432 / 733077.7433767807
#: Events fired by 4 lone threads with quantum coalescing.
COALESCED_EVENTS = 14
#: Events fired by the same 4 threads sliced per quantum.
SLICED_EVENTS = 1807
#: (acquisitions, contended) of 8 threads on one lock, per lock kind.
LOCK_HANDOFF = {
    "asym": (2840, 2843),
    "fifo": (2975, 2979),
    "mcs": (193, 147),
    "spin": (1931, 785),
}
#: (simulated makespan, chunks dispatched) of swim, per loop schedule.
OMP_SCHEDULING = {
    "static": (4.445126530612245, 0),
    "dynamic": (1.0286854591836754, 1024),
    "guided": (1.833197959183675, 208),
    "static_weighted": (1.024614030612245, 32),
}

#: The span layer's budget with every trace category off is 1% of the
#: dispatch path; host noise on the ratio is about 10%, so the floor
#: is the pin less both.  That is tighter than the pin less 15%, the
#: always-on counters' 5% budget plus the same noise, so it holds them
#: to their budget too.
DISPATCH_RATIO_FLOOR = DISPATCH_RATIO_PIN * (1.0 - 0.01 - 0.10)
#: The engine stays at least 20% faster than the seed commit's.
SEED_SPEEDUP_FLOOR = 1.2
#: The macro path fires at least 5x fewer events than per-quantum
#: slicing, and takes at most half its wall time (DESIGN.md §9).
COALESCE_EVENT_REDUCTION_FLOOR = 5.0
COALESCE_SPEEDUP_FLOOR = 2.0
#: ``static_weighted`` beats ``static`` by this factor in simulated
#: time on 2f-2s/8.
OMP_WEIGHTED_SPEEDUP_FLOOR = 1.3
#: A pool of 4 workers sweeps this much faster than one process does,
#: on a host with 4+ CPUs.
FANOUT_SPEEDUP_FLOOR = 1.5


def _seconds(fn):
    """Wall time of one call, with the cyclic collector off.

    The collector's debt is cleared first: a generation-2 collection
    landing inside the timed region scans every object the host
    process holds, which under a full pytest session skews the timing
    by tens of percent depending on test order.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def paired_ratio(numerator, denominator):
    """Median over :data:`ROUNDS` of ``numerator`` seconds over
    ``denominator`` seconds, the two timed back to back in each round,
    alternating which runs first."""
    ratios = []
    for index in range(ROUNDS):
        if index % 2:
            bottom = _seconds(denominator)
            top = _seconds(numerator)
        else:
            top = _seconds(numerator)
            bottom = _seconds(denominator)
        ratios.append(top / bottom)
    return statistics.median(ratios)


def _queue_run(simulator=Simulator):
    sim = simulator()
    for i in range(5000):
        sim.schedule(i * 1e-6, lambda: None)
    sim.run()
    return sim.events_fired


def _timeslice(threads, **build):
    """Events fired by ``threads`` CPU-bound threads on 2f-2s/8."""
    system = System.build("2f-2s/8", seed=1, **build)
    for i in range(threads):
        system.kernel.spawn(SimThread(f"t{i}", _spin(2.8e9)))
    system.run()
    return system.sim.events_fired


def _spin(cycles):
    yield Compute(cycles)


def test_event_queue_throughput():
    """Schedule-and-fire cost of bare (cancellable) simulator events,
    and its speedup over the seed commit's engine on the same host."""
    assert _queue_run() == QUEUE_EVENTS
    assert _queue_run(seed_engine.Simulator) == QUEUE_EVENTS
    speedup = paired_ratio(lambda: _queue_run(seed_engine.Simulator),
                           _queue_run)
    assert speedup >= SEED_SPEEDUP_FLOOR, (
        f"event queue {speedup:.2f}x the seed's speed, below the "
        f"{SEED_SPEEDUP_FLOOR}x seed-speedup floor")


def test_event_queue_fast_path_throughput():
    """The uncancellable fast path: no Event allocation at all."""
    sim = Simulator()
    for i in range(5000):
        sim.schedule_fast(i * 1e-6, lambda: None)
    sim.run()
    assert sim.events_fired == QUEUE_EVENTS


def test_kernel_timeslicing_throughput():
    """Dispatch + preemption cost: 8 threads timesharing 4 cores.

    The dispatch ratio is kernel events/s over bare-queue events/s: a
    drop means the kernel path (where the always-on counters live) got
    slower relative to the bare event loop.
    """
    assert _timeslice(8) == KERNEL_EVENTS
    ratio = (paired_ratio(_queue_run, lambda: _timeslice(8))
             * KERNEL_EVENTS / QUEUE_EVENTS)
    assert ratio >= DISPATCH_RATIO_FLOOR, (
        f"dispatch ratio {ratio:.4f} below the tracing-disabled floor "
        f"{DISPATCH_RATIO_FLOOR:.4f} (pin {DISPATCH_RATIO_PIN:.4f})")


def test_kernel_timeslicing_coalesced_throughput():
    """Quantum coalescing on the uncontended regime: one thread per
    core, so every quantum boundary is a no-op the macro fast path can
    elide.  The two modes are byte-identical (tested exhaustively in
    tests/test_coalescing.py); here only their cost differs."""
    coalesced = _timeslice(4, coalesce=True)
    sliced = _timeslice(4, coalesce=False)
    assert (coalesced, sliced) == (COALESCED_EVENTS, SLICED_EVENTS)
    assert sliced >= COALESCE_EVENT_REDUCTION_FLOOR * coalesced, (
        f"coalescing cut events {sliced / coalesced:.1f}x, below the "
        f"{COALESCE_EVENT_REDUCTION_FLOOR}x event-reduction floor")
    speedup = paired_ratio(lambda: _timeslice(4, coalesce=False),
                           lambda: _timeslice(4, coalesce=True))
    assert speedup >= COALESCE_SPEEDUP_FLOOR, (
        f"coalescing {speedup:.2f}x faster than slicing, below the "
        f"{COALESCE_SPEEDUP_FLOOR}x coalescing speedup floor")


def test_kernel_timeslicing_traced_throughput():
    """The dispatch benchmark with every trace category enabled fires
    exactly the untraced run's events: tracing schedules none."""
    assert _timeslice(8, trace=DEFAULT_TRACE_CATEGORIES) == \
        _timeslice(8), "tracing scheduled events of its own"


def test_synchronization_throughput():
    """Lock/unlock round trips through the kernel."""
    from repro.kernel import Lock, Mutex, Unlock

    system = System.build("4f-0s", seed=1)
    mutex = Mutex("m")

    def body():
        for _ in range(500):
            yield Lock(mutex)
            yield Compute(1000)
            yield Unlock(mutex)

    for i in range(4):
        system.kernel.start(f"t{i}", body())
    assert system.run() > 0


def test_lock_handoff_throughput():
    """Contended handoff per lock kind (DESIGN.md §11).

    Eight threads hammer one shared lock on the asymmetric machine,
    the regime where the handoff policy actually runs (blocking
    wake-up versus spin re-check versus speed-aware successor pick).
    """
    from repro.workloads.lockstress import LockStress

    counts = {}
    for kind in LOCK_HANDOFF:
        counters = LockStress(
            n_threads=8, lock_kind=kind, duration=0.3,
        ).run_once("2f-2s/8", seed=1).run_metrics.counters
        counts[kind] = (counters.get("lock.acquisitions", 0.0),
                        counters.get("lock.contended", 0.0))
        assert counts[kind][0] > 0, \
            f"lock_handoff/{kind} recorded no acquisitions"
    assert counts == LOCK_HANDOFF


def test_omp_scheduling_throughput():
    """Per-policy makespan of the OpenMP loop runtime (DESIGN.md §14):
    one swim run per ``LoopSchedule`` on the 2f-2s/8 machine."""
    from repro.workloads.specomp import OMP_SCHEDULES, SpecOmpBenchmark

    policies = {}
    for policy in OMP_SCHEDULES:
        result = SpecOmpBenchmark(
            "swim", omp_schedule=policy).run_once("2f-2s/8", seed=1)
        policies[policy] = (
            result.metrics["runtime"],
            result.run_metrics.counters.get("omp.chunks_dispatched", 0.0))
    assert policies == OMP_SCHEDULING
    speedup = policies["static"][0] / policies["static_weighted"][0]
    assert speedup >= OMP_WEIGHTED_SPEEDUP_FLOOR, (
        f"static_weighted {speedup:.2f}x faster than static, below the "
        f"{OMP_WEIGHTED_SPEEDUP_FLOOR}x weighted-schedule floor")


def test_runner_fanout_throughput():
    """A Runner sweep fanned out over worker processes.

    The fan-out must never change the sweep's contents.  The speedup
    is timed only on hosts with 4 or more CPUs: with fewer, the pool
    costs more than it saves on these 4 tiny tasks.
    """
    configs = ["4f-0s", "2f-2s/8"]
    workload = TpchQuery(3, parallel_degree=4, optimization_degree=7)

    def contents(sweep):
        return {label: [sorted(run.metrics.items()) for run in runs]
                for label, runs in sweep.results.items()}

    serial = Runner(configs=configs, runs=2, backend=SerialBackend())
    pool = ProcessPoolBackend(min(4, os.cpu_count() or 1))
    try:
        parallel = Runner(configs=configs, runs=2, backend=pool)
        assert contents(serial.run(workload)) == \
            contents(parallel.run(workload))
        if (os.cpu_count() or 1) >= 4:
            speedup = paired_ratio(lambda: serial.run(workload),
                                   lambda: parallel.run(workload))
            assert speedup >= FANOUT_SPEEDUP_FLOOR, (
                f"fan-out {speedup:.2f}x faster on a {os.cpu_count()}"
                f"-CPU host, below the {FANOUT_SPEEDUP_FLOOR}x "
                "fan-out speedup floor")
    finally:
        pool.shutdown()
