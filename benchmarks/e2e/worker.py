"""One workload in one fresh interpreter (started by ``run.py``).

Protocol over stdin/stdout: the worker sets its workload up and prints
``ready SPEED PROBE_SECONDS`` — the host speed it measured at the
start and the end of its set-up (see ``clock.py``) and the wall time
those probes took; it then reads one line.  ``go`` runs the measured
phase and prints the result as one JSON line; anything else ends the
process after the workload closes.  Nothing else is written to stdout.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from clock import ReferenceClock


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    # A stop request from run.py must still close the workload (the
    # service workload owns a server process).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))

    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    clock = ReferenceClock(every_cpu=workload.every_cpu)
    clock.probe()
    try:
        workload.setup(args.seed)
        clock.probe()
        print(f"ready {clock.mean_speed()!r} {clock.probe_seconds()!r}",
              flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        recorder = layers.Recorder()
        result = workload.measure(args.seed, args.seconds,
                                  bool(args.trace), recorder)
    finally:
        workload.close()
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(recorder.chrome_trace(), handle)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
