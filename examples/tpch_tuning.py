#!/usr/bin/env python3
"""TPC-H on an asymmetric machine: the DBA's view.

Replays the paper's §3.3 experiment as a database-tuning exercise:
how do the intra-query parallelization degree and the optimization
degree interact with performance asymmetry?

Output: a matrix of mean runtime and run-to-run spread for query 3 on
the 2f-2s/8 machine, plus the serial (degree 1) bimodality.
"""

import argparse
import statistics

from repro.experiments.parallel import RunTask, make_backend
from repro.experiments.report import format_table
from repro.service.cache import ResultCache
from repro.workloads.tpch import TpchQuery

CONFIG = "2f-2s/8"
SEEDS = range(8)


def measure(backend, parallel_degree, optimization_degree):
    workload = TpchQuery(3, parallel_degree=parallel_degree,
                         optimization_degree=optimization_degree)
    results = backend.execute(
        [RunTask(workload, CONFIG, s) for s in SEEDS])
    values = [r.metric("runtime") for r in results]
    mean = statistics.mean(values)
    return mean, statistics.pstdev(values) / mean, values


def main(jobs=None):
    # The (1, 7) cell is shown twice; the cache makes the replay free.
    backend = make_backend(jobs, cache=ResultCache())
    print(f"TPC-H query 3 on {CONFIG}, {len(list(SEEDS))} runs per "
          "cell\n")
    rows = []
    for par in (1, 4, 8):
        for opt in (2, 7):
            mean, cov, _ = measure(backend, par, opt)
            rows.append([str(par), str(opt), f"{mean:.2f}s",
                         f"{cov:.3f}"])
    print(format_table(
        ["parallelization", "optimization", "mean runtime", "CoV"],
        rows))

    _, _, serial_runs = measure(backend, 1, 7)
    print("\nSerial execution (degree 1) is bimodal — the query runs "
          "at whichever\nprocessor's speed it was scheduled on:")
    print("  runtimes:", ", ".join(f"{v:.2f}s" for v in serial_runs))
    print("\nLesson (paper §3.3.2): the optimizer's cost model needs "
          "to know about\nprocessor speeds; lowering the optimization "
          "degree trades speed for stability.")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: serial)")
    main(jobs=parser.parse_args().jobs)
