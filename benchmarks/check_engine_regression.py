#!/usr/bin/env python
"""Guard the engine microbenchmarks against throughput regressions.

Compares a freshly measured ``BENCH_engine.json`` against the
committed baseline.  Raw events/sec are incomparable across hosts, so
every check is hardware-independent:

* **Dispatch-path cost ratio** — ``kernel_timeslicing`` events/sec
  over ``event_queue`` events/sec from the *same* run.  The numerator
  exercises the scheduler hot path (where the always-on metrics
  counters live); the denominator is the bare event loop.  A drop in
  the ratio beyond tolerance means the kernel path got relatively
  slower — exactly the regression the <5% observability budget
  forbids.
* **Event counts** — the simulations are deterministic, so the number
  of events fired must match the baseline exactly; drift means
  behaviour changed, not just speed.
* **Seed speedup floor** — the engine must stay >= 20% faster than
  the seed commit's event queue (the documented optimization target):
  ``speedup_vs_seed``, the median of per-round ratios from timing the
  seed's engine (``benchmarks/seed_engine.py``) and today's in the
  same process, must be at least :data:`SEED_SPEEDUP_FLOOR`.
* **Quantum coalescing floors** — on the uncontended timeslicing
  benchmark the macro-slice fast path must fire >= 5x fewer events
  than per-quantum slicing and finish >= 2x faster (event counts are
  deterministic and compared exactly against the baseline; the wall
  ratio compares the two modes within the same run, so it is
  host-independent).

* **Lock-handoff pins** — the per-kind contended lock benchmark
  (``lock_handoff``) is deterministic, so per-kind acquisition and
  contention counts are compared exactly; drift means the lock
  layer's grant order or spin policy changed.

* **OpenMP scheduling pins** — the per-policy loop-schedule benchmark
  (``omp_scheduling``) is deterministic, so simulated makespans and
  chunk counts are compared exactly per policy, and the
  ``static_weighted`` schedule must stay >= 1.3x faster than
  ``static`` on the asymmetric reference machine (DESIGN.md §14).

The baseline defaults to the *committed* pin
``benchmarks/results/BENCH_baseline.json``, which only
``benchmarks/update_baseline.py`` may rewrite — never the benchmark
run itself.  (Comparing against a baseline measured from the same
commit would let a regression ship alongside its own relaxed
baseline.)

Usage::

    python benchmarks/check_engine_regression.py \
        [--baseline benchmarks/results/BENCH_baseline.json] \
        [--fresh benchmarks/results/BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Allowed relative drop in the dispatch-path cost ratio.  The
#: observability layer's budget is 5%, but best-of-N timings on shared
#: CI runners jitter by ~10% — the threshold splits the difference:
#: loose enough not to flake, tight enough that a
#: collector-indirection-class regression (~19%, see repro.metrics)
#: still trips it.  The event-count checks below are exact and catch
#: behavioural drift regardless of timer noise.
DEFAULT_TOLERANCE = 0.15

#: The span layer's budget when no trace category is enabled: <1% on
#: the dispatch path (the disabled cost is one set-membership check
#: per trace point).  Checked as a dispatch-ratio floor against the
#: committed pin, with the same ~10% host-noise margin the main
#: tolerance documents — tighter than DEFAULT_TOLERANCE, so this is
#: the binding constraint for tracing-related slowdowns.
TRACING_DISABLED_BUDGET = 0.01
NOISE_MARGIN = 0.10

#: Floors for the quantum-coalescing fast path on the uncontended
#: timeslicing benchmark (kernel_timeslicing_coalesced): the macro
#: path must fire at least EVENT_REDUCTION_FLOOR-fold fewer events
#: and beat per-quantum slicing by at least COALESCE_SPEEDUP_FLOOR in
#: wall clock.  Both modes are measured in the same run, so the wall
#: ratio is host-independent; the measured margins are ~129x and ~3.1x.
#: The wall floor is relative to the per-quantum path, so it falls
#: whenever that path gets cheaper (DESIGN.md §9).
COALESCE_EVENT_REDUCTION_FLOOR = 5.0
COALESCE_SPEEDUP_FLOOR = 2.0

#: Floor for the speed-weighted loop schedule on the asymmetric
#: reference machine (omp_scheduling, 2f-2s/8): ``static_weighted``
#: must finish the swim makespan at least this much faster than
#: ``static`` in *simulated* time.  Both policies run in the same
#: benchmark, so the ratio is host-independent; the measured margin is
#: ~4.3x.  The per-policy makespans and chunk counts are deterministic
#: and pinned exactly against the baseline besides.
OMP_WEIGHTED_SPEEDUP_FLOOR = 1.3

#: Floor for the scenario service's warm/cold ratio
#: (service_throughput, benchmarks/test_service_throughput.py): a
#: fully cached resubmission of the same sweep must beat the cold
#: (simulate-everything) pass by at least this factor.  Both passes
#: are measured over the same connection in the same run, so the
#: ratio is host-independent; the measured margin is ~80x.  The hard
#: pin next to it — warm_simulations == 0 — is the service's central
#: guarantee: a warm cache answers without running the simulator at
#: all, not just faster.
SERVICE_WARM_SPEEDUP_FLOOR = 3.0

#: Floor for the event queue's speedup over the seed commit's engine
#: (event_queue.speedup_vs_seed).  Both engines are timed in the same
#: process, so the ratio needs no host normalization.
SEED_SPEEDUP_FLOOR = 1.2

DEFAULT_FRESH = (Path(__file__).resolve().parent
                 / "results" / "BENCH_engine.json")

DEFAULT_BASELINE = (Path(__file__).resolve().parent
                    / "results" / "BENCH_baseline.json")


def dispatch_ratio(bench: dict) -> float:
    return (bench["kernel_timeslicing"]["events_per_sec"]
            / bench["event_queue"]["events_per_sec"])


def check(baseline: dict, fresh: dict,
          tolerance: float = DEFAULT_TOLERANCE) -> list:
    failures = []

    base_ratio = dispatch_ratio(baseline)
    fresh_ratio = dispatch_ratio(fresh)
    floor = base_ratio * (1.0 - tolerance)
    print(f"dispatch-path cost ratio: baseline {base_ratio:.4f}, "
          f"fresh {fresh_ratio:.4f} (floor {floor:.4f})")
    if fresh_ratio < floor:
        drop = 100.0 * (1.0 - fresh_ratio / base_ratio)
        failures.append(
            f"kernel dispatch path is {drop:.1f}% relatively slower "
            f"than baseline (ratio {fresh_ratio:.4f} < {floor:.4f})")

    strict_floor = base_ratio * (1.0 - TRACING_DISABLED_BUDGET
                                 - NOISE_MARGIN)
    print(f"tracing-disabled budget: ratio floor {strict_floor:.4f} "
          f"(1% budget + {NOISE_MARGIN:.0%} noise margin)")
    if fresh_ratio < strict_floor:
        failures.append(
            f"disabled-tracing overhead exceeds the 1% budget: "
            f"dispatch ratio {fresh_ratio:.4f} < {strict_floor:.4f} "
            f"(pin {base_ratio:.4f} minus budget and noise margin)")

    for name in ("event_queue", "kernel_timeslicing"):
        base_events = baseline[name]["events"]
        fresh_events = fresh[name]["events"]
        if base_events != fresh_events:
            failures.append(
                f"{name} fired {fresh_events} events vs baseline "
                f"{base_events} — simulation behaviour changed")

    traced = fresh.get("kernel_timeslicing_traced")
    if traced is not None:
        untraced = fresh["kernel_timeslicing"]
        if traced["events"] != untraced["events"]:
            failures.append(
                f"enabling tracing changed the event count: "
                f"{traced['events']} traced vs {untraced['events']} "
                "untraced — instrumentation must not schedule events")
        enabled_cost = (traced["best_seconds"]
                        / untraced["best_seconds"])
        print(f"enabled-tracing cost: {enabled_cost:.2f}x the "
              "untraced dispatch benchmark")

    coalesced = fresh.get("kernel_timeslicing_coalesced")
    if coalesced is not None:
        events = coalesced["coalesced_events"]
        sliced_events = coalesced["sliced_events"]
        if not events < sliced_events:
            failures.append(
                f"coalescing fired {events} events vs {sliced_events} "
                "sliced — the macro fast path never engaged")
        if events * COALESCE_EVENT_REDUCTION_FLOOR > sliced_events:
            failures.append(
                f"coalescing event reduction below "
                f"{COALESCE_EVENT_REDUCTION_FLOOR:.0f}x: "
                f"{events} coalesced vs {sliced_events} sliced "
                f"({sliced_events / events:.1f}x)")
        speedup = (coalesced["sliced_best_seconds"]
                   / coalesced["coalesced_best_seconds"])
        print(f"coalescing: {sliced_events / events:.1f}x fewer "
              f"events, {speedup:.1f}x faster than sliced")
        if speedup < COALESCE_SPEEDUP_FLOOR:
            failures.append(
                f"coalescing speedup {speedup:.2f}x below the "
                f"{COALESCE_SPEEDUP_FLOOR:.0f}x floor")
        pinned = baseline.get("kernel_timeslicing_coalesced")
        if pinned is not None:
            for key in ("coalesced_events", "sliced_events"):
                if pinned[key] != coalesced[key]:
                    failures.append(
                        f"kernel_timeslicing_coalesced {key} = "
                        f"{coalesced[key]} vs baseline {pinned[key]} "
                        "— simulation behaviour changed")

    handoff = fresh.get("lock_handoff")
    if handoff is not None:
        for kind, numbers in sorted(handoff["kinds"].items()):
            if not numbers["acquisitions"] > 0:
                failures.append(
                    f"lock_handoff/{kind} recorded no acquisitions — "
                    "the contended lock benchmark never engaged")
            rate = numbers["acquisitions_per_sec"]
            print(f"lock handoff ({kind}): "
                  f"{numbers['acquisitions']:.0f} acquisitions "
                  f"({numbers['contended']:.0f} contended), "
                  f"{rate:,.0f} acquisitions/sec")
        pinned = baseline.get("lock_handoff")
        if pinned is not None:
            # The stress runs are deterministic: per-kind acquisition
            # and contention counts must match the baseline exactly.
            for kind, numbers in sorted(handoff["kinds"].items()):
                pin = pinned["kinds"].get(kind)
                if pin is None:
                    continue
                for key in ("acquisitions", "contended"):
                    if pin[key] != numbers[key]:
                        failures.append(
                            f"lock_handoff/{kind} {key} = "
                            f"{numbers[key]:.0f} vs baseline "
                            f"{pin[key]:.0f} — simulation behaviour "
                            "changed")

    omp = fresh.get("omp_scheduling")
    if omp is not None:
        static = omp["policies"].get("static")
        weighted = omp["policies"].get("static_weighted")
        if static is not None and weighted is not None:
            speedup = (static["makespan_seconds"]
                       / weighted["makespan_seconds"])
            print(f"omp scheduling ({omp['config']}): static_weighted "
                  f"{speedup:.1f}x faster than static "
                  f"({weighted['makespan_seconds']:.3f}s vs "
                  f"{static['makespan_seconds']:.3f}s simulated)")
            if speedup < OMP_WEIGHTED_SPEEDUP_FLOOR:
                failures.append(
                    f"static_weighted schedule only {speedup:.2f}x "
                    f"faster than static on {omp['config']} — below "
                    f"the {OMP_WEIGHTED_SPEEDUP_FLOOR:.1f}x floor")
        pinned = baseline.get("omp_scheduling")
        if pinned is not None:
            # The per-policy runs are deterministic: simulated
            # makespans and chunk counts must match exactly.
            for policy, numbers in sorted(omp["policies"].items()):
                pin = pinned["policies"].get(policy)
                if pin is None:
                    continue
                for key in ("makespan_seconds", "chunks_dispatched"):
                    if pin[key] != numbers[key]:
                        failures.append(
                            f"omp_scheduling/{policy} {key} = "
                            f"{numbers[key]} vs baseline {pin[key]} "
                            "— simulation behaviour changed")

    service = fresh.get("service_throughput")
    if service is not None:
        if service["warm_simulations"] != 0:
            failures.append(
                f"warm service resubmission ran "
                f"{service['warm_simulations']} simulation(s) — a "
                "fully cached sweep must run zero")
        if service["warm_cache_hits"] != service["tasks"]:
            failures.append(
                f"warm service resubmission hit the cache for "
                f"{service['warm_cache_hits']}/{service['tasks']} "
                "task(s) — the persistent cache is leaking entries")
        if service["cold_simulations"] != service["tasks"]:
            failures.append(
                f"cold service pass simulated "
                f"{service['cold_simulations']}/{service['tasks']} "
                "task(s) — the cold benchmark started warm")
        speedup = service["warm_speedup"]
        print(f"service cache: {service['tasks']} tasks, "
              f"warm {speedup:.1f}x faster than cold "
              f"({service['warm_tasks_per_sec']:,.0f} vs "
              f"{service['cold_tasks_per_sec']:,.0f} tasks/sec)")
        if speedup < SERVICE_WARM_SPEEDUP_FLOOR:
            failures.append(
                f"warm-cache speedup {speedup:.2f}x below the "
                f"{SERVICE_WARM_SPEEDUP_FLOOR:.0f}x floor")
        pinned = baseline.get("service_throughput")
        if pinned is not None and pinned["tasks"] != service["tasks"]:
            failures.append(
                f"service benchmark submitted {service['tasks']} "
                f"task(s) vs baseline {pinned['tasks']} — the sweep "
                "shape changed without a baseline update")

    speedup = fresh["event_queue"].get("speedup_vs_seed")
    if speedup is None:
        failures.append("event_queue recorded no speedup_vs_seed")
    else:
        print(f"event-queue speedup vs seed: median {speedup:.2f}x "
              f"over {fresh['event_queue'].get('seed_rounds')} paired "
              f"rounds (floor {SEED_SPEEDUP_FLOOR:.1f}x)")
        if speedup < SEED_SPEEDUP_FLOOR:
            failures.append(
                f"event queue no longer meets the "
                f">={SEED_SPEEDUP_FLOOR:.1f}x seed speedup target "
                f"({speedup:.2f}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare engine benchmark JSON against baseline")
    parser.add_argument("--baseline", type=Path,
                        default=DEFAULT_BASELINE,
                        help="pinned baseline numbers "
                             "(default: %(default)s)")
    parser.add_argument("--fresh", type=Path, default=DEFAULT_FRESH,
                        help="freshly measured BENCH_engine.json")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed relative ratio drop "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    fresh = json.loads(args.fresh.read_text(encoding="utf-8"))
    failures = check(baseline, fresh, args.tolerance)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("engine throughput: no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
