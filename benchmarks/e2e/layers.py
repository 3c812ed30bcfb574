"""Layer instrumentation applied from outside the simulator.

Nothing under ``src/`` knows it is being measured: every number here
comes from wrapping or timing calls into public entry points of
``repro`` (``Runner.run``, ``execute_task``, ``Kernel.run``, a
kernel's scheduler) and from a ``SIGPROF`` sampler that attributes
process CPU time to the nearest ``repro`` frame's subpackage.

* :class:`Recorder` keeps spans and counts in memory.  A span records
  its name, start, end, parent span and the root span (the request)
  it belongs to; :meth:`Recorder.chrome_trace` writes them out as
  Chrome trace-event JSON when the benchmark ends.
* :class:`Sampler` is the stdlib statistical profiler.
* :func:`instrumented` installs the span and count wrappers for the
  duration of a ``with`` block and restores the originals after.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import signal
import threading
import time
from typing import Dict, Iterator, List, Optional

import repro
from repro.experiments.runner import Runner
from repro.kernel.kernel import Kernel

#: Layers the sampler reports, named after the ``repro`` subpackages
#: (the two scheduler modules are split out of ``kernel``).  ``other``
#: is everything outside ``repro``: the benchmark itself, the
#: interpreter and the standard library when no ``repro`` frame is on
#: the stack.
LAYERS = ("kernel", "sched", "machine", "sim", "experiments", "metrics",
          "workloads", "runtime", "analysis", "service", "faults",
          "other")

#: Process CPU seconds between two sampler ticks asked of the kernel.
INTERVAL = 0.001

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_SCHED_FILES = {"kernel/scheduler.py", "kernel/asym_scheduler.py"}
_TOP_LEVEL = {"metrics.py": "metrics", "histogram.py": "metrics",
              "faults.py": "faults", "_system.py": "kernel"}


def layer_of(filename: str) -> str:
    """Layer of a source file; ``""`` for files that belong to no layer
    (the standard library), so the sampler keeps walking outward."""
    path = os.path.abspath(filename)
    if path.startswith(_BENCH_DIR):
        return "other"
    if not path.startswith(_REPRO_DIR):
        return ""
    rel = path[len(_REPRO_DIR):].replace(os.sep, "/")
    if rel in _SCHED_FILES:
        return "sched"
    head = rel.split("/", 1)[0]
    if head in LAYERS:
        return head
    return _TOP_LEVEL.get(rel, "other")


class Recorder:
    """Spans and counts taken at layer boundaries, kept in memory.

    Thread-safe for the way the benchmark uses it: each thread keeps
    its own span stack, and finished spans are appended to one list.
    """

    def __init__(self) -> None:
        #: Finished spans: ``[id, parent, root, name, start, end, thread,
        #: args]`` with ``time.perf_counter`` times; ``parent`` is 0 for
        #: a root span.
        self.spans: List[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, args: Optional[dict] = None) -> list:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        span = [sid, parent[0] if parent else 0,
                parent[2] if parent else sid, name,
                time.perf_counter(), 0.0, threading.get_ident(), args]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def intervals(self, name: str) -> List[tuple]:
        """``(start, end)`` of every span called ``name``."""
        return [(s[4], s[5]) for s in self.spans if s[3] == name]

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as a Chrome trace-event (Perfetto) JSON object."""
        pid = os.getpid()
        events = []
        for sid, parent, root, name, start, end, tid, args in self.spans:
            events.append({
                "name": name, "cat": "e2e", "ph": "X", "pid": pid,
                "tid": tid, "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": dict(args or {}, id=sid, parent=parent,
                             request=root)})
        events.sort(key=lambda event: (event["ts"], -event["dur"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class Sampler:
    """``SIGPROF`` statistical profiler over process CPU time.

    Each tick walks the interrupted frame outward to the nearest frame
    that belongs to a layer (see :func:`layer_of`) and counts one
    sample for it.  Signals are delivered to the main thread, so only
    the main thread's stack is sampled.  The kernel may deliver fewer
    ticks than asked for (process CPU timers often run at the
    scheduler tick), so a layer's self time is its share of the
    samples times the time measured while sampling, not ticks times
    the interval.
    """

    def __init__(self) -> None:
        self.samples: collections.Counter = collections.Counter()
        #: Process CPU seconds spent between start() and stop() calls.
        self.cpu_seconds = 0.0
        self._layers: Dict[object, str] = {}
        self._previous = None
        self._cpu_start = 0.0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._cpu_start = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.cpu_seconds += time.process_time() - self._cpu_start
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        layers = self._layers
        layer = ""
        while frame is not None:
            code = frame.f_code
            layer = layers.get(code)
            if layer is None:
                layer = layers[code] = layer_of(code.co_filename)
            if layer:
                break
            frame = frame.f_back
        self.samples[layer or "other"] += 1

    def shares(self) -> Dict[str, float]:
        """Fraction of samples per layer (every layer listed; sums to 1
        whenever at least one sample was taken)."""
        total = sum(self.samples.values())
        return {layer: (self.samples[layer] / total if total else 0.0)
                for layer in LAYERS}


@contextlib.contextmanager
def instrumented(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap the layer boundaries below the task level.

    * ``Runner.run``: a ``runner.run`` span.
    * ``Kernel.run``: a ``kernel.run`` span plus the events the
      simulator fired inside it (``sim.events``).
    * Every kernel's scheduler: ``place`` and ``next_thread`` calls
      made by the kernel (``sched.place_calls``,
      ``sched.next_thread_calls``).  They are counted on the instance,
      so a policy calling its base class is not counted twice.
    """
    counts = recorder.counts
    run_sweep = Runner.run
    kernel_run = Kernel.run
    kernel_init = Kernel.__init__

    def runner_run(self, workload):
        span = recorder.begin("runner.run", {"workload": workload.name})
        try:
            return run_sweep(self, workload)
        finally:
            recorder.end(span)

    def timed_kernel_run(self, until=None):
        span = recorder.begin("kernel.run")
        before = self.sim.events_fired
        try:
            return kernel_run(self, until)
        finally:
            counts["sim.events"] += self.sim.events_fired - before
            recorder.end(span)

    def counting(method, key):
        def call(*args):
            counts[key] += 1
            return method(*args)
        return call

    def counted_init(self, *args, **kwargs):
        kernel_init(self, *args, **kwargs)
        scheduler = self.scheduler
        scheduler.place = counting(scheduler.place, "sched.place_calls")
        scheduler.next_thread = counting(scheduler.next_thread,
                                         "sched.next_thread_calls")

    Runner.run = runner_run
    Kernel.run = timed_kernel_run
    Kernel.__init__ = counted_init
    try:
        yield recorder
    finally:
        Runner.run = run_sweep
        Kernel.run = kernel_run
        Kernel.__init__ = kernel_init
