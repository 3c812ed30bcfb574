"""End-to-end benchmark of the simulator and its scenario service.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload exhibits --seed 100 \\
        --seconds 25 --trace 0 [--out results.jsonl]

Workloads: ``exhibits``, ``wakeups``, ``bursts``, ``service`` (see
``workloads.py`` and README.md).  The workload runs in a fresh
interpreter; with ``--trace 0`` it is started five times, the median
start-to-ready time is ``setup_s``, and the last start runs the
measured phase.  ``--trace 1`` starts it once and reports the
per-layer metrics instead.

Prints every metric as ``workload metric value unit (n=samples)``, the
output digest and exact counts, then one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 1 when any output check failed and 2 when the workload could not
run at all (no result is printed then).  ``--out`` appends the full
record (digest, counts, sample counts, layer shares) as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("exhibits", "wakeups", "bursts", "service")

#: Fresh-interpreter starts whose median is ``setup_s``.
STARTS = 5
#: Everything, starts included, must finish within this many seconds.
BUDGET = 170.0


class WorkerError(RuntimeError):
    pass


def _stop(proc: subprocess.Popen) -> None:
    """Stop a worker and everything it started (its process group)."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _start(args, deadline: float) -> tuple:
    """Start a worker; returns (process, reference seconds and raw
    seconds until it was ready).  The worker measures the host speed
    itself (see ``worker.py``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(
            OUT_DIR, f"trace-{args.workload}-{args.seed}.json")]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(1.0, deadline - time.monotonic()))
    words = proc.stdout.readline().split() if ready else []
    wall = time.perf_counter() - start
    if len(words) != 3 or words[0] != "ready":
        _stop(proc)
        raise WorkerError(f"{args.workload} worker failed to set up "
                          f"(exit {proc.returncode})")
    speed, probing = float(words[1]), float(words[2])
    return proc, (wall - probing) * speed, wall


def measure(args) -> Dict:
    """Run the starts and the measured phase; returns the full record."""
    deadline = time.monotonic() + BUDGET
    setups: List[float] = []
    raw: List[float] = []
    for index in range(1 if args.trace else STARTS):
        proc, elapsed, wall = _start(args, deadline)
        setups.append(elapsed)
        raw.append(wall)
        last = index == (0 if args.trace else STARTS - 1)
        try:
            out, _ = proc.communicate("go\n" if last else "quit\n",
                                      timeout=max(1.0, deadline
                                                  - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{args.workload} worker overran the "
                              f"{BUDGET:.0f} s budget") from None
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise WorkerError(f"{args.workload} worker exited with "
                              f"{proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"{args.workload} worker printed no result")
    record = with_setup(json.loads(lines[-1]), setups)
    if not args.trace:
        record["raw"]["setup_s"] = statistics.median(raw)
    return record


def with_setup(record: Dict, setups: List[float]) -> Dict:
    """Add the start-to-ready samples (and, untraced, ``setup_s``)."""
    record["setup_samples"] = setups
    if not record["trace"]:
        record["metrics"] = dict(
            {"setup_s": {"value": statistics.median(setups), "unit": "s",
                         "n": len(setups)}}, **record["metrics"])
    return record


def summary_line(record: Dict) -> Dict:
    """The last line of the output: the driver's result object."""
    return {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the full record to this JSONL file")
    args = parser.parse_args(argv)
    try:
        record = measure(args)
    except (WorkerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = args.workload
    for metric, m in record["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"{name} digest {record['digest']} (seed {args.seed})")
    print(f"{name} counts " + " ".join(
        f"{key}={value:g}" for key, value in record["counts"].items()))
    for failure in record["failures"][:20]:
        print(f"{name} FAILED {failure}", file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    line = summary_line(record)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
