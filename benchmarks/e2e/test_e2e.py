"""Smoke tests of the end-to-end benchmark on shortened workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

The workloads are built through their Python constructors with short
task lists; the measured phase is one round (one traced pair) or, for
the service, a couple of seconds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import clock  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)

NAMES = ("exhibits", "wakeups", "bursts", "service")


def small(name: str):
    if name == "exhibits":
        return workloads.Exhibits(names=("fig04", "fig11"))
    if name == "wakeups":
        return workloads.Wakeups(configs=("2f-2s/8",), web_seconds=0.05,
                                 lock_seconds=0.05)
    if name == "bursts":
        return workloads.Bursts(configs=("2f-2s/8",), benchmarks=("swim",),
                                schedules=("static", "dynamic"))
    return workloads.Service(configs=("4f-0s", "2f-2s/8"))


def measure(name: str, seed: int, trace: bool, recorder=None,
            seconds: float = None):
    """One measured phase; by default one round (one traced pair), or
    2 s for the service."""
    workload = small(name)
    if seconds is None:
        seconds = 2.0 if name == "service" else 0.0
    try:
        workload.setup(seed)
        return workload.measure(seed, seconds, trace, recorder)
    finally:
        workload.close()


@pytest.fixture(scope="module")
def measured():
    """(record, recorder) per (workload, traced), measured once."""
    cache = {}

    def get(name: str, trace: bool):
        if (name, trace) not in cache:
            recorder = layers.Recorder()
            cache[name, trace] = (measure(name, 7, trace, recorder),
                                  recorder)
        return cache[name, trace]

    return get


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "layers"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(measured, name, trace):
    record, _ = measured(name, trace)
    line = run.summary_line(run.with_setup(record, [0.3, 0.2, 0.4]))
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert line["correct"], record["failures"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {spec["name"]: spec["unit"] for spec in specs}
    for value in (m["value"] for m in line["metrics"].values()):
        assert math.isfinite(value)
    if not trace:
        assert line["metrics"]["setup_s"]["value"] == 0.3
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_same_seed_gives_identical_digests_and_counts(measured):
    first, _ = measured("wakeups", False)
    again = measure("wakeups", 7, False)
    assert again["digest"] == first["digest"]
    assert again["counts"] == first["counts"]
    plans = [workloads.RequestPlan(7), workloads.RequestPlan(7)]
    assert [plans[0].next() for _ in range(60)] == \
        [plans[1].next() for _ in range(60)]


def test_different_seed_changes_the_inputs(measured):
    first, _ = measured("wakeups", False)
    other = measure("wakeups", 8, False)
    assert other["digest"] != first["digest"]
    assert other["counts"] != first["counts"]
    plans = [workloads.RequestPlan(7), workloads.RequestPlan(8)]
    assert [plans[0].next() for _ in range(20)] != \
        [plans[1].next() for _ in range(20)]


def test_layer_counts_do_not_depend_on_the_time_budget(measured):
    short, _ = measured("wakeups", True)
    long = measure("wakeups", 7, True, seconds=3.0)
    assert long["rounds"] > short["rounds"]
    counted = [spec["name"] for spec in BENCH["per_layer"]
               if spec["unit"] == "count"
               or spec["name"] in ("coalesce.useful_frac",
                                   "experiments.dup_frac")]
    assert {k: long["metrics"][k]["value"] for k in counted} == \
        {k: short["metrics"][k]["value"] for k in counted}
    assert short["metrics"]["kernel.dispatches"]["value"] > 0


def test_request_plan_mix():
    plan = workloads.RequestPlan(3, window=10)
    drawn = [plan.next() for _ in range(400)]
    assert drawn[0][1], "the first request must be cold"
    assert sum(cold for _, cold, _ in drawn) == 60
    colds = []
    for _, cold, seed in drawn:
        if cold:
            assert seed not in colds
            colds.append(seed)
        else:
            assert seed in colds[-10:], "warm requests repeat recent ones"


def test_sampler_shares_sum_to_one(measured):
    record, _ = measured("exhibits", True)
    shares = record["shares"]
    assert set(shares) == set(layers.LAYERS)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["kernel"] > 0


def test_spans_nest_under_their_parent(measured):
    _, recorder = measured("exhibits", True)
    spans = {span[0]: span for span in recorder.spans}
    names = {span[3] for span in spans.values()}
    assert {"exhibit", "runner.run", "execute_task", "kernel.run"} <= names
    for sid, parent, root, name, start, end, tid, _ in spans.values():
        assert start <= end
        if not parent:
            assert root == sid and name == "exhibit"
            continue
        above = spans[parent]
        assert above[4] <= start and end <= above[5]
        assert above[6] == tid and above[2] == root
    kernel_parents = {spans[s[1]][3] for s in spans.values()
                      if s[3] == "kernel.run"}
    assert kernel_parents == {"execute_task"}
    trace = recorder.chrome_trace()["traceEvents"]
    assert len(trace) == len(spans)


def test_reference_clock_weights_by_speed_and_skips_probes():
    ticker = clock.ReferenceClock()
    before = time.perf_counter()
    ticker.probe()
    inside = time.perf_counter()
    assert ticker.seconds(before, inside) == 0.0
    time.sleep(0.05)
    ticker.probe()
    after = time.perf_counter()
    gap = ticker._starts[1] - ticker._ends[0]
    assert ticker.seconds(before, after) == pytest.approx(
        gap * (ticker._speeds[0] + ticker._speeds[1]) / 2)
    middle = ticker._ends[0] + gap / 2
    assert ticker.seconds(before, middle) == pytest.approx(
        ticker.seconds(middle, after))


def _record(seed: int, value: float, raw: float = None,
            speed: float = None) -> dict:
    """An untraced record whose metrics all read ``value``, raw timings
    ``raw`` (default ``value``) at host speed ``speed``."""
    return {"workload": "wakeups", "seed": seed, "trace": False,
            "digest": "d", "counts": {"tasks": 1}, "failures": [],
            "host_speed": 0.7 + 0.001 * seed if speed is None else speed,
            "raw": {name: value if raw is None else raw
                    for name in ("setup_s", *workloads.E2E_UNITS)
                    if name != "peak_rss_mb"},
            "metrics": {spec["name"]: {"value": value}
                        for spec in BENCH["end_to_end"]}}


def _verdicts(lines) -> dict:
    return {line.split()[1]: line.split()[-1] for line in lines
            if line.startswith("wakeups ")}


def test_compare_reports_regressions_and_gains():
    parent = [_record(s, 1.0 + 0.001 * s) for s in range(10)]
    same = [_record(s, 1.0 + 0.001 * (9 - s)) for s in range(10)]
    lines, ok = compare.compare(parent, same, BENCH)
    assert ok and not any(" worse" in line for line in lines)
    slower = [_record(s, 1.3) for s in range(10)]
    lines, ok = compare.compare(parent, slower, BENCH)
    assert not ok and any(line.endswith("worse") for line in lines)
    faster = [_record(s, 0.7) for s in range(10)]
    lines, ok = compare.compare(parent, faster, BENCH)
    assert ok and any(line.endswith("better") for line in lines)
    changed = [dict(_record(s, 1.0), digest="other") for s in range(10)]
    assert not compare.compare(parent, changed, BENCH)[1]


def test_compare_distrusts_a_moved_host_speed_or_raw_regression():
    parent = [_record(s, 1.0 + 0.001 * s) for s in range(10)]
    # The normalized values agree, but the raw timings got much worse:
    # the reference clock may have absorbed the change's own cost.
    lines, ok = compare.compare(
        parent, [_record(s, 1.0, raw=1.5) for s in range(10)], BENCH)
    verdicts = _verdicts(lines)
    assert not ok
    assert verdicts["round_s"] == "unresolved"
    assert verdicts["peak_rss_mb"] == "same", "memory has no raw timing"
    # The change ran on a much slower host.
    lines, ok = compare.compare(
        parent, [_record(s, 1.0, speed=0.4) for s in range(10)], BENCH)
    verdicts = _verdicts(lines)
    assert not ok and verdicts["op_p50_ms"] == "unresolved"
    assert verdicts["peak_rss_mb"] == "same"


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "wakeups",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
