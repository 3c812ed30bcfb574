"""The benchmark's four workloads and how one measured phase runs.

Every workload is generated from the run's seed and driven by
closed-loop clients: a client sends its next operation only when the
previous one has completed.

* ``exhibits``, ``wakeups`` and ``bursts`` simulate in this process
  from one client.  Each repeats a fixed *round* of work (round ``k``
  uses seed ``seed + 1000 * k``) until the next round would overrun
  the time budget.  The operation is one simulation task
  (``repro.experiments.parallel.execute_task``), timed by wrapping it.
* ``service`` drives ``python -m repro serve`` over TCP from two
  connections; the operation is one sweep request and a round is 100
  requests.

Durations are reference seconds (see ``clock.py``).  With tracing on,
rounds run in pairs on the same seed, first untraced and then traced:
the pair gives the tracing overhead on identical work, and the
digests of the two must match.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import parallel
from repro.experiments.figures import ALL_EXHIBITS, fig13_omp_scheduling
from repro.experiments.profiles import QUICK
from repro.experiments.runner import Runner
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.machine.topology import STANDARD_CONFIG_LABELS
from repro.metrics import RunMetrics
from repro.service import protocol
from repro.service.cache import canonical_result_json, result_from_payload
from repro.service.ledger import read_ledger
from repro.workloads import ApacheWorkload, SpecJAppServer, TpchPowerRun
from repro.workloads.lockstress import LockStress
from repro.workloads.specomp import (
    BENCHMARK_NAMES,
    OMP_SCHEDULES,
    SpecOmpBenchmark,
)

import layers
from clock import ReferenceClock

#: Scratch space for the service workload (cache, ledger, server log);
#: inside the checkout, removed when the workload closes.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Seed distance between consecutive rounds; far enough apart that the
#: ``base_seed + i`` repetitions of one round never reach the next.
ROUND_SEED_STRIDE = 1000

#: The quick profile shrunk so that all 14 exhibits regenerate in
#: about 8.4 reference seconds instead of about 48: one run per
#: configuration (two where an exhibit insists), shorter simulated
#: windows, one jAppServer rate.
#: Every exhibit keeps its structure, including the tasks ``table1``
#: repeats from ``fig10``.
BENCH_PROFILE = dataclasses.replace(
    QUICK, name="bench", runs=1, specjbb_measurement=0.4,
    web_measurement=0.2, lockstress_seconds=0.3, pmake_files=60,
    h264_frames=3, injection_rates=(320,), tpch_query_runs=2)

CONFIGS = tuple(STANDARD_CONFIG_LABELS)
SCHEDULERS = (None, AsymmetryAwareScheduler)

#: End-to-end metrics a workload reports (``setup_s`` is measured by
#: ``run.py`` around the worker processes).
E2E_UNITS = {
    "round_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "host_s_per_sim_s": "s/s",
    "peak_rss_mb": "MB",
}

#: Layers whose sampled self time is a per-layer metric.
SELF_TIME_LAYERS = ("kernel", "sched", "machine", "sim", "experiments",
                    "metrics", "workloads", "runtime", "analysis")

#: Per-layer metrics.  On the simulating workloads the counts and
#: fractions are those of the first traced round (the base seed) and the
#: times are per traced round; on ``service`` both are per round of
#: requests.  A layer a workload does not run reports 0 (no server on
#: the simulating workloads; no in-process simulation on ``service``).
LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "sched.place_calls": "count",
    "sched.next_thread_calls": "count",
    "kernel.context_switches": "count",
    "kernel.migrations": "count",
    "kernel.dispatches": "count",
    "sim.events": "count",
    "sim.events_per_host_s": "1/s",
    "coalesce.macros_armed": "count",
    "coalesce.rotation_macros_armed": "count",
    "coalesce.useful_frac": "ratio",
    "experiments.tasks": "count",
    "experiments.dup_frac": "ratio",
    "service.cache.memory_hit_frac": "ratio",
    "service.cache.disk_hits": "count",
    "service.cache.stores": "count",
    "service.inflight_coalesced": "count",
    "service.simulations_run": "count",
    "service.queue_wait_p50_ms": "ms",
    "service.execute_p50_ms": "ms",
    "service.client_decode_s": "s",
    "trace.overhead_frac": "ratio",
}


def metrics(values: Dict[str, Tuple[float, int]],
            units: Dict[str, str]) -> Dict[str, Dict]:
    """``{name: {value, unit, n}}`` for every name in ``units``; names
    missing from ``values`` report 0 from 0 samples."""
    return {name: {"value": float(values.get(name, (0.0, 0))[0]),
                   "unit": unit, "n": int(values.get(name, (0.0, 0))[1])}
            for name, unit in units.items()}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def deciles(values: List[float]) -> List[float]:
    """p10..p90 of a sample (``statistics.quantiles``, inclusive)."""
    values = values or [0.0]
    if len(values) == 1:
        return values * 9
    return statistics.quantiles(values, n=10, method="inclusive")


Seconds = Callable[[float, float], float]


def raw_seconds(start: float, end: float) -> float:
    return end - start


def timing_values(wall: float, rounds: float, rounds_n: int,
                  latencies: List[float],
                  simulated: float) -> Dict[str, Tuple]:
    """The timed end-to-end metrics of one measured phase."""
    tenths = deciles(latencies)
    return {"round_s": (ratio(wall, rounds), rounds_n),
            "op_p50_ms": (tenths[4] * 1e3, len(latencies)),
            "op_p90_ms": (tenths[8] * 1e3, len(latencies)),
            "host_s_per_sim_s": (ratio(wall, simulated), len(latencies))}


def self_times(sampler: layers.Sampler, seconds: float,
               rounds: float) -> Dict[str, Tuple]:
    """Per round, each layer's share of the samples times the
    ``seconds`` measured while sampling."""
    shares = sampler.shares()
    return {f"{layer}.self_s": (shares[layer] * seconds / rounds,
                                sampler.samples[layer])
            for layer in SELF_TIME_LAYERS}


def result_counts(result) -> Dict[str, float]:
    """Exact per-run counts from a task's RunMetrics."""
    rm = result.run_metrics
    counters = rm.counters
    return {
        "tasks": 1,
        "sim_seconds": rm.duration,
        "kernel.context_switches": rm.context_switches,
        "kernel.migrations": rm.migrations,
        "kernel.dispatches": sum(core.dispatches for core in rm.cores),
        "coalesce.macros_armed": counters.get("coalesce.macros_armed", 0),
        "coalesce.rotation_macros_armed":
            counters.get("coalesce.rotation_macros_armed", 0),
        "coalesce.completed":
            counters.get("coalesce.macros_completed", 0)
            + counters.get("coalesce.rotation_macros_completed", 0),
    }


class TaskProbe:
    """Times every ``execute_task`` call and keeps what it ran."""

    def __init__(self, clock: ReferenceClock) -> None:
        self.clock = clock
        self.recorder: Optional[layers.Recorder] = None
        self.reset()

    def reset(self) -> None:
        self.attempted = 0
        #: ``(start, end)`` of every task, in ``perf_counter`` time.
        self.intervals: List[Tuple[float, float]] = []
        self.runs: List[tuple] = []

    @contextlib.contextmanager
    def installed(self):
        execute = parallel.execute_task

        def timed(task):
            self.attempted += 1
            self.clock.tick()
            recorder = self.recorder
            span = (recorder.begin("execute_task",
                                   {"config": task.config,
                                    "seed": task.seed})
                    if recorder is not None else None)
            start = time.perf_counter()
            try:
                result = execute(task)
            finally:
                end = time.perf_counter()
                if span is not None:
                    recorder.end(span)
            self.intervals.append((start, end))
            self.runs.append((task, result))
            return result

        parallel.execute_task = timed
        try:
            yield self
        finally:
            parallel.execute_task = execute


@dataclasses.dataclass
class Round:
    seed: int
    traced: bool
    start: float
    end: float
    intervals: List[Tuple[float, float]]
    attempted: int
    failures: List[str]
    digest: str
    counts: Dict[str, float]
    duplicates: int = 0


class RoundWorkload:
    """A workload that repeats a fixed round of simulation work."""

    name = ""
    #: Whether the work runs on every CPU (see ``clock.py``).
    every_cpu = False

    def setup(self, seed: int) -> None:
        """Pay first-call costs with one small simulation."""
        parallel.execute_task(parallel.RunTask(
            LockStress(n_threads=4, duration=0.02), "2f-2s/8", seed))

    def close(self) -> None:
        pass

    def run_round(self, seed: int, recorder) -> Tuple[List[str],
                                                     List[str]]:
        """Run one round; returns (rendered outputs, failures)."""
        raise NotImplementedError

    def _sweeps(self, pairs, seed: int) -> Tuple[List[str], List[str]]:
        """Run one ``Runner`` sweep per (workload, scheduler) pair."""
        failures = []
        for workload, scheduler in pairs:
            try:
                Runner(configs=self.configs, runs=1, base_seed=seed,
                       scheduler_factory=scheduler, jobs=0).run(workload)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                failures.append(f"{workload.name}: "
                                f"{type(exc).__name__}: {exc}")
        return [], failures

    # ------------------------------------------------------------------
    def _round(self, seed: int, probe: TaskProbe, traced: bool,
               recorder: layers.Recorder,
               sampler: layers.Sampler) -> Round:
        probe.reset()
        probe.recorder = recorder if traced else None
        counted = dict(recorder.counts)
        scope = (layers.instrumented(recorder) if traced
                 else contextlib.nullcontext())
        with scope:
            if traced:
                sampler.start()
            start = time.perf_counter()
            try:
                outputs, failures = self.run_round(
                    seed, recorder if traced else None)
            finally:
                end = time.perf_counter()
                if traced:
                    sampler.stop()
        probe.recorder = None
        digest = hashlib.sha256()
        for text in outputs:
            digest.update(text.encode("utf-8") + b"\n")
        # The layer counts this round added to the recorder's totals.
        counts: Dict[str, float] = {
            key: value - counted.get(key, 0)
            for key, value in recorder.counts.items()
            if value != counted.get(key, 0)}
        for task, result in probe.runs:
            where = f"{result.workload} {task.config} seed {task.seed}"
            if result.run_metrics is None:
                failures.append(f"{where}: no RunMetrics")
                continue
            failures.extend(f"{where}: {error}" for error
                            in result.run_metrics.conservation_errors())
            for key, value in result_counts(result).items():
                counts[key] = counts.get(key, 0) + value
            digest.update(canonical_result_json(result).encode("utf-8"))
        duplicates = 0
        if traced:
            seen = set()
            for task, _ in probe.runs:
                key = parallel.task_fingerprint(task)
                duplicates += key in seen
                seen.add(key)
        return Round(seed=seed, traced=traced, start=start, end=end,
                     intervals=list(probe.intervals),
                     attempted=probe.attempted + len(outputs),
                     failures=failures, digest=digest.hexdigest(),
                     counts=counts, duplicates=duplicates)

    def measure(self, seed: int, seconds: float, trace: bool,
                recorder: Optional[layers.Recorder] = None) -> Dict:
        """Run rounds for ``seconds`` and summarize them.

        At least one round (one pair when tracing) always runs; after
        that a round starts only if it is expected to end in time.
        """
        recorder = recorder if recorder is not None else layers.Recorder()
        sampler = layers.Sampler()
        clock = ReferenceClock()
        probe = TaskProbe(clock)
        rounds: List[Round] = []
        step = 2 if trace else 1
        clock.probe()
        start = time.perf_counter()
        with probe.installed():
            while True:
                k = len(rounds)
                rounds.append(self._round(
                    seed + ROUND_SEED_STRIDE * (k // step), probe,
                    trace and k % 2 == 1, recorder, sampler))
                if k == 0:
                    # Peak memory through the first round, so runs that
                    # fit more rounds stay comparable.
                    rss = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024
                if len(rounds) % step:
                    continue
                elapsed = time.perf_counter() - start
                if elapsed + step * elapsed / len(rounds) > seconds:
                    break
        clock.probe()
        failures = [f for r in rounds for f in r.failures]
        if trace:
            failures += [f"round seed {plain.seed}: traced output differs "
                         "from untraced output"
                         for plain, traced in zip(rounds[::2], rounds[1::2])
                         if plain.digest != traced.digest]
        result = {
            "workload": self.name, "seed": seed, "seconds": seconds,
            "trace": trace, "rounds": len(rounds),
            "attempted": sum(r.attempted for r in rounds),
            "failures": failures,
            "digest": rounds[0].digest, "counts": rounds[0].counts,
        }
        if trace:
            result["metrics"] = metrics(self._layer_values(
                rounds, recorder, sampler, clock.seconds), LAYER_UNITS)
            result["shares"] = sampler.shares()
        else:
            result["metrics"] = metrics(dict(
                self._timing(rounds, clock.seconds), peak_rss_mb=(rss, 1)),
                E2E_UNITS)
            result["raw"] = {name: value for name, (value, _)
                             in self._timing(rounds, raw_seconds).items()}
            result["host_speed"] = clock.mean_speed()
        return result

    @staticmethod
    def _timing(rounds: List[Round], seconds: Seconds) -> Dict[str, Tuple]:
        return timing_values(
            sum(seconds(r.start, r.end) for r in rounds), len(rounds),
            len(rounds), [seconds(*i) for r in rounds for i in r.intervals],
            sum(r.counts.get("sim_seconds", 0.0) for r in rounds))

    @staticmethod
    def _layer_values(rounds: List[Round], recorder: layers.Recorder,
                      sampler: layers.Sampler,
                      seconds: Seconds) -> Dict[str, Tuple]:
        traced = [r for r in rounds if r.traced]
        plain = [r for r in rounds if not r.traced]
        n = len(traced)
        # Exact counts come from the first traced round, which always
        # runs the base seed: how many rounds fit the time budget, and
        # so which seeds ran, must not move them.
        first = traced[0]
        counts = first.counts
        tasks = counts.get("tasks", 0)
        armed = (counts.get("coalesce.macros_armed", 0)
                 + counts.get("coalesce.rotation_macros_armed", 0))
        values = self_times(
            sampler, sum(seconds(r.start, r.end) for r in traced), n)
        for key in ("sched.place_calls", "sched.next_thread_calls",
                    "kernel.context_switches", "kernel.migrations",
                    "kernel.dispatches", "sim.events",
                    "coalesce.macros_armed",
                    "coalesce.rotation_macros_armed"):
            values[key] = (counts.get(key, 0), 1)
        values.update({
            "sim.events_per_host_s": (
                ratio(sum(r.counts.get("sim.events", 0) for r in traced),
                      sum(seconds(*span)
                          for span in recorder.intervals("kernel.run"))),
                n),
            "coalesce.useful_frac": (
                ratio(counts.get("coalesce.completed", 0), armed), armed),
            "experiments.tasks": (tasks, 1),
            "experiments.dup_frac": (ratio(first.duplicates, tasks), tasks),
            "trace.overhead_frac": (
                sum(seconds(r.start, r.end) for r in traced)
                / sum(seconds(r.start, r.end) for r in plain) - 1, n),
        })
        return values


# ----------------------------------------------------------------------
# Simulating workloads
# ----------------------------------------------------------------------
class Exhibits(RoundWorkload):
    """Regenerate every exhibit (run, then render) at BENCH_PROFILE.

    The only workload with duplicate work: ``table1`` re-simulates the
    sweeps ``fig10`` ran, and ``fig03`` the jAppServer sweep of both.
    A result cache shared across exhibits shows here and nowhere else.
    """

    name = "exhibits"

    def __init__(self, names=tuple(ALL_EXHIBITS)) -> None:
        self.names = tuple(names)

    def run_round(self, seed, recorder):
        outputs, failures = [], []
        for name in self.names:
            module = ALL_EXHIBITS[name]
            span = (recorder.begin("exhibit", {"exhibit": name})
                    if recorder is not None else None)
            try:
                data = module.run(BENCH_PROFILE, base_seed=seed, jobs=0)
                text = module.render(data)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                text = "FAILED"
            else:
                failures.extend(acceptance_failures(name, data))
            finally:
                if span is not None:
                    recorder.end(span)
            outputs.append(f"== {name}\n{text}")
        return outputs, failures


def acceptance_failures(name: str, data: Dict) -> List[str]:
    """An exhibit's acceptance checks, re-checked without ``assert``.

    fig13's recovery bar holds on every seed and is checked as such.
    fig12's 50% recovery bar does not (at the quick profile it fails on
    seeds 1 and 3 of 0..24), so only its series are checked.
    """
    if name == "fig13":
        recovery = fig13_omp_scheduling.recovered_fraction(data)
        if recovery < fig13_omp_scheduling.RECOVERY_BAR:
            return [f"fig13: stealing recovered {recovery:.1%} < "
                    f"{fig13_omp_scheduling.RECOVERY_BAR:.0%}"]
    if name == "fig12":
        empty = [series for series, values in data["series"].items()
                 if not all(value > 0 for value in values)]
        if empty:
            return [f"fig12: no throughput in series {empty}"]
    return []


class Wakeups(RoundWorkload):
    """Blocking-bound servers: wake, dispatch and placement dominate.

    Apache light and heavy, SPECjAppServer at injection rate 320 and
    an 8-thread spin-lock LockStress, each over the configurations
    under the stock and the asymmetry-aware scheduler.  Coalescing
    almost never engages and nothing repeats, so this workload bypasses
    both the coalescing fast path and any result cache.
    """

    name = "wakeups"

    def __init__(self, configs=CONFIGS, web_seconds: float = 0.25,
                 lock_seconds: float = 0.15) -> None:
        self.configs = list(configs)
        self.workloads = [
            ApacheWorkload("light", measurement_seconds=web_seconds),
            ApacheWorkload("heavy", measurement_seconds=web_seconds),
            SpecJAppServer(injection_rate=320),
            LockStress(n_threads=8, lock_kind="spin",
                       duration=lock_seconds),
        ]

    def run_round(self, seed, recorder):
        return self._sweeps([(w, s) for w in self.workloads
                             for s in SCHEDULERS], seed)


class Bursts(RoundWorkload):
    """Long uninterrupted compute bursts, where coalescing does its work.

    TPC-H power runs at parallel degree 8 over all 22 queries (both
    schedulers) and every SPEC OMP benchmark under every loop schedule.
    """

    name = "bursts"

    def __init__(self, configs=CONFIGS, benchmarks=BENCHMARK_NAMES,
                 schedules=OMP_SCHEDULES) -> None:
        self.configs = list(configs)
        self.pairs = [(TpchPowerRun(parallel_degree=8), s)
                      for s in SCHEDULERS]
        self.pairs += [(SpecOmpBenchmark(b, omp_schedule=p), None)
                       for b in benchmarks for p in schedules]

    def run_round(self, seed, recorder):
        return self._sweeps(self.pairs, seed)


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
#: One SPECjbb sweep over the nine configurations per request.
SWEEP_PARAMS = {"measurement_seconds": 0.4, "warmup_seconds": 0.1}


def sweep_message(seed: int, configs=CONFIGS) -> Dict:
    return {"type": "sweep", "workload": "specjbb",
            "configs": list(configs), "runs": 1, "base_seed": seed,
            "params": dict(SWEEP_PARAMS)}


def payload_digest(payloads: List[Dict]) -> str:
    return hashlib.sha256(json.dumps(
        payloads, sort_keys=True).encode("utf-8")).hexdigest()


class RequestPlan:
    """The deterministic request sequence of one seed.

    Requests come in blocks of ``block``: ``cold`` of each block ask
    for a sweep no earlier request asked for (a fresh base seed, so
    the server simulates and stores it), the rest repeat one of the
    ``window`` most recent cold sweeps, chosen uniformly (the server
    reads its cache).  The window bounds the working set however many
    requests a run gets through: 120 sweeps are 1080 results, about 4x
    the server's 256-entry memory tier, so most warm reads go to disk
    and the median request stays clear of the boundary between memory
    and disk hits.  The first request is cold.  Thread-safe:
    connections draw in turn.
    """

    block = 20
    cold = 3

    def __init__(self, seed: int, window: int = 120) -> None:
        self.window = window
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._pending: List[Tuple[bool, int]] = []
        self._drawn = 0
        self.cold_seeds: List[int] = []

    def _fill(self) -> None:
        rng = self._rng
        if self.cold_seeds:
            positions = set(rng.sample(range(self.block), self.cold))
        else:
            positions = {0} | set(rng.sample(range(1, self.block),
                                             self.cold - 1))
        for position in range(self.block):
            if position in positions:
                seed = rng.randrange(1, 2 ** 31 - 1)
                while seed in self.cold_seeds:
                    seed = rng.randrange(1, 2 ** 31 - 1)
                self.cold_seeds.append(seed)
                self._pending.append((True, seed))
            else:
                self._pending.append(
                    (False, rng.choice(self.cold_seeds[-self.window:])))

    def next(self) -> Tuple[int, bool, int]:
        """``(index, cold, sweep seed)`` of the next request."""
        with self._lock:
            if not self._pending:
                self._fill()
            cold, seed = self._pending.pop(0)
            index = self._drawn
            self._drawn += 1
            return index, cold, seed


#: Seconds a connection waits for the server before it fails.
CONNECTION_TIMEOUT = 120.0


class Connection:
    """One NDJSON connection to the scenario server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=CONNECTION_TIMEOUT)
        self.stream = self.sock.makefile("rwb")

    def request(self, message: Dict, recorder=None) -> Tuple[Dict, float]:
        """Send one message; returns (response, seconds spent decoding)."""
        self.stream.write(json.dumps(message).encode("utf-8") + b"\n")
        self.stream.flush()
        line = self.stream.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        span = (recorder.begin("service.decode")
                if recorder is not None else None)
        start = time.perf_counter()
        response = json.loads(line)
        decode = time.perf_counter() - start
        if span is not None:
            recorder.end(span)
        return response, decode

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


def mean_latency(log: List[tuple], seconds: Seconds) -> float:
    return statistics.fmean(seconds(b, e) for _, b, e, _ in log)


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _children(pid: int) -> List[int]:
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(name))
    return found


class Service:
    """The scenario server under two closed-loop connections.

    Setup starts ``python -m repro serve --jobs 2`` with a fresh cache
    directory and a ledger, then sends one discarded cold sweep that
    starts the worker pool.  The measured phase sends SPECjbb sweeps
    from :class:`RequestPlan`: 15% cold (the server simulates and
    writes), 85% warm (the server reads; the working set is about 4x
    its 256-entry memory tier, so reads hit both memory and disk).
    Per-layer numbers come from the server's ``stats`` response and
    its ledger, and from client spans; the server is not sampled.
    """

    name = "service"
    every_cpu = True
    #: Requests per round (the unit of ``round_s``).
    round_requests = 100
    #: Planned sweeps re-simulated in process after the measured phase.
    verify = 3
    #: ``peak_rss_mb`` is read once this many requests were answered,
    #: so that runs which got through more requests stay comparable.
    rss_requests = 1500

    connections = 2
    jobs = 2

    def __init__(self, configs=CONFIGS) -> None:
        self.configs = list(configs)
        self.server: Optional[subprocess.Popen] = None
        self.conns: List[Connection] = []
        self.workdir = ""

    def setup(self, seed: int) -> None:
        self.workdir = os.path.join(OUT_DIR, f"service-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        port_file = os.path.join(self.workdir, "port")
        self.ledger = os.path.join(self.workdir, "ledger.jsonl")
        self.log = open(os.path.join(self.workdir, "server.log"), "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", port_file, "--jobs", str(self.jobs),
             "--cache-dir", os.path.join(self.workdir, "cache"),
             "--ledger", self.ledger],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.log)
        deadline = time.monotonic() + 60
        port = ""
        while not port:
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("scenario server did not start")
            time.sleep(0.02)
            with contextlib.suppress(FileNotFoundError):
                with open(port_file, encoding="ascii") as handle:
                    port = handle.read().strip()
        self.conns = [Connection(int(port))
                      for _ in range(self.connections)]
        response, _ = self.conns[0].request(sweep_message(0, self.configs))
        if response.get("type") != "result":
            raise RuntimeError(f"warm-up sweep failed: {response}")

    def close(self) -> None:
        """Drain and stop the server, then remove the scratch files."""
        if self.server is not None:
            if self.server.poll() is None and self.conns:
                with contextlib.suppress(OSError, ValueError):
                    self.conns[0].request({"type": "shutdown"})
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None
            self.log.close()
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = ""

    # ------------------------------------------------------------------
    def measure(self, seed: int, seconds: float, trace: bool,
                recorder: Optional[layers.Recorder] = None) -> Dict:
        """Drive the server for ``seconds``, then verify and summarize.

        With tracing, alternate blocks of the plan are traced (client
        spans plus the sampler); blocks carry equal cold quotas, so
        traced and untraced requests compare like for like.
        """
        recorder = recorder if recorder is not None else layers.Recorder()
        sampler = layers.Sampler()
        clock = ReferenceClock(every_cpu=self.every_cpu)
        plan = RequestPlan(seed)
        lock = threading.Lock()
        log: List[tuple] = []        # (traced, start, end, decode seconds)
        failures: List[str] = []
        digests: Dict[int, str] = {}
        delivered = [0.0]            # simulated seconds in the answers
        rss: List[float] = []
        before, _ = self.conns[0].request({"type": "stats"})
        clock.probe()
        start = time.perf_counter()
        deadline = start + seconds

        def drive(conn: Connection, main: bool) -> None:
            sampled = False
            while time.perf_counter() < deadline:
                if main:
                    clock.tick()
                index, cold, sweep_seed = plan.next()
                traced = trace and (index // plan.block) % 2 == 1
                if main and traced != sampled:
                    (sampler.start if traced else sampler.stop)()
                    sampled = traced
                span = (recorder.begin("service.request",
                                       {"index": index, "cold": cold,
                                        "seed": sweep_seed})
                        if traced else None)
                begin = time.perf_counter()
                try:
                    response, decode = conn.request(
                        sweep_message(sweep_seed, self.configs),
                        recorder if traced else None)
                except (OSError, ValueError) as exc:
                    with lock:
                        failures.append(f"request {index}: {exc}")
                    break
                finally:
                    end = time.perf_counter()
                    if span is not None:
                        recorder.end(span)
                problems, simulated = self._check(response, sweep_seed,
                                                  digests, lock)
                with lock:
                    log.append((traced, begin, end, decode))
                    failures.extend(f"request {index}: {p}"
                                    for p in problems)
                    delivered[0] += simulated
                if main and not rss and len(log) >= self.rss_requests:
                    rss.append(self._rss_mb())
            if sampled:
                sampler.stop()

        threads = [threading.Thread(target=drive, args=(conn, False))
                   for conn in self.conns[1:]]
        for thread in threads:
            thread.start()
        drive(self.conns[0], True)
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        clock.probe()
        after, _ = self.conns[0].request({"type": "stats"})
        problems, counts = self._verify(plan.cold_seeds[:self.verify],
                                        digests)
        failures.extend(problems)
        rss = rss or [self._rss_mb()]
        ledger = read_ledger(self.ledger)
        self.close()
        rounds = len(log) / self.round_requests
        result = {
            "workload": self.name, "seed": seed, "seconds": seconds,
            "trace": trace, "rounds": rounds,
            "attempted": len(log) + self.verify, "failures": failures,
            "digest": self._first_block_digest(plan, digests),
            "counts": counts, "requests": len(log),
        }
        if trace:
            result["metrics"] = metrics(self._layer_values(
                log, before, after, ledger, sampler, clock.seconds),
                LAYER_UNITS)
            result["shares"] = sampler.shares()
        else:
            def timing(seconds: Seconds) -> Dict[str, Tuple]:
                return timing_values(
                    seconds(start, end), rounds, len(log),
                    [seconds(b, e) for _, b, e, _ in log], delivered[0])

            result["metrics"] = metrics(dict(
                timing(clock.seconds), peak_rss_mb=(rss[0], 1 + self.jobs)),
                E2E_UNITS)
            result["raw"] = {name: value for name, (value, _)
                             in timing(raw_seconds).items()}
            result["host_speed"] = clock.mean_speed()
        return result

    def _rss_mb(self) -> float:
        """Peak resident memory of the server and its pool workers."""
        return sum(_vm_hwm_mb(pid) for pid in
                   [self.server.pid] + _children(self.server.pid))

    def _check(self, response: Dict, sweep_seed: int,
               digests: Dict[int, str], lock) -> Tuple[List[str], float]:
        """Problems with one answer, and the simulated seconds it
        delivered.  A repeated sweep must be answered byte-identically
        to its first answer; a first answer must conserve cycles."""
        if response.get("type") != "result":
            return [f"{response.get('error')}: "
                    f"{response.get('messages')}"], 0.0
        payloads = response.get("results", [])
        if len(payloads) != len(self.configs):
            return [f"{len(payloads)} results for "
                    f"{len(self.configs)} configs"], 0.0
        digest = payload_digest(payloads)
        with lock:
            first = digests.get(sweep_seed)
            if first is None:
                digests[sweep_seed] = digest
        problems = []
        if first is None:
            for payload in payloads:
                problems.extend(RunMetrics.from_dict(
                    payload["run_metrics"]).conservation_errors())
        elif first != digest:
            problems.append(f"sweep {sweep_seed} answered differently")
        return problems, sum(p["run_metrics"]["duration"]
                             for p in payloads)

    def _verify(self, seeds: List[int], digests: Dict[int, str]
                ) -> Tuple[List[str], Dict[str, float]]:
        """Re-request planned sweeps; each answer must equal an
        in-process ``SerialBackend`` run of the same tasks, byte for
        byte, and the answer served during the measured phase.
        Returns the problems and the exact counts of those runs."""
        failures: List[str] = []
        counts: Dict[str, float] = {}
        for seed in seeds:
            message = sweep_message(seed, self.configs)
            response, _ = self.conns[0].request(message)
            if response.get("type") != "result":
                failures.append(f"verify {seed}: {response.get('error')}")
                continue
            local = parallel.SerialBackend().execute(
                protocol.parse_scenario(message).tasks)
            for result in local:
                for key, value in result_counts(result).items():
                    counts[key] = counts.get(key, 0) + value
            served = [result_from_payload(p) for p in response["results"]]
            if [canonical_result_json(r) for r in served] != \
                    [canonical_result_json(r) for r in local]:
                failures.append(f"verify {seed}: service payload differs "
                                "from an in-process run")
            digest = payload_digest(response["results"])
            if digests.setdefault(seed, digest) != digest:
                failures.append(f"verify {seed}: differs from the "
                                "answer served during the run")
        return failures, counts

    def _layer_values(self, log, before, after, ledger,
                      sampler: layers.Sampler,
                      seconds: Seconds) -> Dict[str, Tuple]:
        traced = [entry for entry in log if entry[0]]
        plain = [entry for entry in log if not entry[0]]
        rounds = len(log) / self.round_requests
        traced_rounds = len(traced) / self.round_requests
        c0, c1 = before["counters"], after["counters"]

        def per_round(name: str) -> Tuple[float, int]:
            return (ratio(c1.get(name, 0) - c0.get(name, 0), rounds),
                    len(log))

        first = before["ledger"]["records"]
        last = after["ledger"]["records"]
        records = [r for r in ledger
                   if first <= r["index"] < last
                   and r.get("request") == "sweep"]
        waits = [r["queue_wait_seconds"] for r in records
                 if "queue_wait_seconds" in r]
        executes = [r["execute_seconds"] for r in records
                    if "execute_seconds" in r]
        hits = c1.get("service.cache.hits", 0) - c0.get(
            "service.cache.hits", 0)
        memory_hits = c1.get("service.cache.memory_hits", 0) - c0.get(
            "service.cache.memory_hits", 0)
        values = self_times(sampler, sampler.cpu_seconds,
                            traced_rounds or 1)
        values.update({
            "service.cache.memory_hit_frac": (ratio(memory_hits, hits),
                                              hits),
            "service.cache.disk_hits": per_round("service.cache.disk_hits"),
            "service.cache.stores": per_round("service.cache.stores"),
            "service.inflight_coalesced":
                per_round("service.inflight_coalesced"),
            "service.simulations_run": per_round("service.simulations_run"),
            "service.queue_wait_p50_ms": (
                statistics.median(waits or [0.0]) * 1e3, len(waits)),
            "service.execute_p50_ms": (
                statistics.median(executes or [0.0]) * 1e3, len(executes)),
            "service.client_decode_s": (
                ratio(sum(entry[3] for entry in traced), traced_rounds),
                len(traced)),
            "trace.overhead_frac": (
                ratio(mean_latency(traced, seconds),
                      mean_latency(plain, seconds)) - 1
                if traced and plain else 0.0, len(traced)),
        })
        return values

    @staticmethod
    def _first_block_digest(plan: RequestPlan,
                            digests: Dict[int, str]) -> str:
        """Digest of the first block's cold sweeps (requested by every
        run of the seed), in plan order."""
        digest = hashlib.sha256()
        for seed in plan.cold_seeds[:plan.cold]:
            digest.update(f"{seed}:{digests.get(seed, '')}\n".encode())
        return digest.hexdigest()


WORKLOADS = {cls.name: cls for cls in (Exhibits, Wakeups, Bursts, Service)}
