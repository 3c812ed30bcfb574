"""Compare two sets of benchmark records: a parent and a change.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records appended by ``run.py --out``.  For every
workload and end-to-end metric of BENCHMARK.json this prints each
side's median and quartiles, the share of seed-paired runs the change
won, and a verdict against the metric's bound:

* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: the parent's spread (quartile distance over median)
  exceeds the bound, and not every change run beats every parent run;
  or, for a timed metric, the raw wall-clock verdict is ``worse``, or
  the two sides ran at host speeds whose medians differ by more than
  the parent's quartile distance (the reference clock may then have
  absorbed part of a change, see ``clock.py``);
* ``better``: the change won at least 90% of the pairs and the medians
  differ by more than the parent's quartile distance (a claimable
  gain);
* ``same``: none of the above.

Each workload's measured host speed is printed above its metrics, and
each timed metric's raw median change and raw verdict next to its own.
Per-layer metrics (traced records) are listed with their medians,
without a verdict.  Records of the same workload and seed on both
sides must have identical output digests and exact counts.  Exits 1
on any ``worse`` or ``unresolved`` verdict or digest/count mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")


def load(path: str) -> List[Dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], wins: float,
            bound: float, lower_is_better: bool) -> str:
    q1, median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    sign = 1.0 if lower_is_better else -1.0
    worsening = sign * (change_median - median) / median if median else 0.0
    if worsening > bound:
        return "worse"
    better_all = (max(change) < min(parent) if lower_is_better
                  else min(change) > max(parent))
    spread = (q3 - q1) / median if median else 0.0
    if spread > bound and not better_all:
        return "unresolved"
    if worsening < 0 and wins >= 0.9 and abs(change_median - median) \
            > q3 - q1:
        return "better"
    return "same"


def pair_wins(parent: Dict[int, float], change: Dict[int, float],
              lower_is_better: bool) -> Tuple[float, int]:
    """Share of seed-paired runs the change won (ties count for
    neither side), and the number of pairs."""
    seeds = sorted(set(parent) & set(change))
    won = sum(1 for s in seeds
              if (change[s] < parent[s]) == lower_is_better
              and change[s] != parent[s])
    return (won / len(seeds) if seeds else 0.0), len(seeds)


def by_workload(records: List[Dict], trace: bool) -> Dict[str, List[Dict]]:
    out: Dict[str, List[Dict]] = {}
    for record in records:
        if record["trace"] == trace:
            out.setdefault(record["workload"], []).append(record)
    return out


def judge(parent: List[Dict], change: List[Dict], spec: Dict,
          field: str) -> Tuple[str, float, float, tuple, tuple]:
    """Verdict, pair-win share and median change of one metric, read
    from each record's ``metrics`` (values) or ``raw`` (numbers), and
    both sides' quartiles."""
    name, lower = spec["name"], spec["better"] == "lower"

    def value(record: Dict) -> float:
        entry = record[field][name]
        return entry["value"] if field == "metrics" else entry

    p = {r["seed"]: value(r) for r in parent}
    c = {r["seed"]: value(r) for r in change}
    wins, _ = pair_wins(p, c, lower)
    pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
    result = verdict(list(p.values()), list(c.values()), wins,
                     spec["bound"], lower)
    delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    return result, wins, delta, pq, cq


def compare(parent: List[Dict], change: List[Dict],
            bench: Dict) -> Tuple[List[str], bool]:
    """Report lines, and whether the change passed."""
    lines: List[str] = []
    ok = True
    base, new = by_workload(parent, False), by_workload(change, False)
    header = (f"{'workload':9} {'metric':17} {'parent median [q1, q3]':32} "
              f"{'change median [q1, q3]':32} {'delta':>7} {'wins':>5} "
              f"{'bound':>5}  {'raw delta, verdict':18}  verdict")
    lines.append(header)
    for workload in sorted(set(base) & set(new)):
        sp = quartiles([r["host_speed"] for r in base[workload]])
        sc = quartiles([r["host_speed"] for r in new[workload]])
        speed_moved = abs(sc[1] - sp[1]) > sp[2] - sp[0]
        lines.append(f"{workload:9} {'host_speed':17} {_triple(sp):32} "
                     f"{_triple(sc):32} {(sc[1] - sp[1]) / sp[1]:+7.1%}  "
                     + ("medians differ by more than the parent's "
                        "quartile distance" if speed_moved else "steady"))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            result, wins, delta, pq, cq = judge(
                base[workload], new[workload], spec, "metrics")
            raw = "-"
            if name in base[workload][0]["raw"]:
                raw_result, _, raw_delta, _, _ = judge(
                    base[workload], new[workload], spec, "raw")
                raw = f"{raw_delta:+7.1%} {raw_result}"
                if result != "worse" and (speed_moved
                                          or raw_result == "worse"):
                    result = "unresolved"
            ok = ok and result not in ("worse", "unresolved")
            lines.append(
                f"{workload:9} {name:17} "
                f"{_triple(pq):32} {_triple(cq):32} {delta:+7.1%} "
                f"{wins:5.0%} {spec['bound']:5.0%}  {raw:18}  {result}")
    lines.append("")
    traced_base, traced_new = by_workload(parent, True), by_workload(
        change, True)
    for workload in sorted(set(traced_base) & set(traced_new)):
        for spec in bench["per_layer"]:
            name = spec["name"]
            pm = statistics.median(r["metrics"][name]["value"]
                                   for r in traced_base[workload])
            cm = statistics.median(r["metrics"][name]["value"]
                                   for r in traced_new[workload])
            lines.append(f"{workload:9} {name:32} parent {pm:12.6g}  "
                         f"change {cm:12.6g}  {spec['unit']}")
    if traced_base and traced_new:
        lines.append("")
    for label, trace in (("untraced", False), ("traced", True)):
        left = {(r["workload"], r["seed"]): r for r in parent
                if r["trace"] == trace}
        right = {(r["workload"], r["seed"]): r for r in change
                 if r["trace"] == trace}
        shared = sorted(set(left) & set(right))
        mismatched = [key for key in shared
                      if left[key]["digest"] != right[key]["digest"]
                      or left[key]["counts"] != right[key]["counts"]]
        ok = ok and not mismatched
        lines.append(f"{label} digests and exact counts: "
                     f"{len(shared) - len(mismatched)}/{len(shared)} "
                     "seed-paired runs identical"
                     + "".join(f"\n  differs: {w} seed {s}"
                               for w, s in mismatched))
    failed = [r for r in parent + change if r["failures"]]
    ok = ok and not failed
    lines.append(f"runs with failed output checks: {len(failed)}")
    return lines, ok


def _triple(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        bench = json.load(handle)
    lines, ok = compare(load(args.parent), load(args.change), bench)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
