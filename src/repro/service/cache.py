"""The fingerprint-keyed result cache: an LRU memory tier over an
optional disk tier.

The cache-identity argument (DESIGN.md §12): a task's fingerprint
(:func:`repro.experiments.parallel.task_fingerprint`) folds the
workload's full constructor state, the machine configuration, the
seed, the scheduler factory, the fault schedule, the trace categories
and the coalescing mode — every input the simulation derives behaviour
from.  Two tasks with the same fingerprint therefore describe the
*same deterministic computation*, so serving the second from a stored
copy of the first's :class:`~repro.workloads.base.RunResult` is
byte-identical to re-simulating by construction, not by luck.

What is stored is each result's canonical payload text
(:func:`result_text`: ``json.dumps(result_to_payload(result),
sort_keys=True)``), written once when the result is fresh.  Memory and
disk hits return that same text, and the server splices it into its
response line unparsed, so a cold answer, a memory hit and a disk hit
carry the same bytes; the backends' object API parses it back into a
fresh :class:`~repro.workloads.base.RunResult`.

Storage layout of the disk tier: one file per fingerprint under the
cache directory — a header line ``{"fingerprint": ..., "format": 2,
"sha256": ...}`` followed by the text — written atomically (temp file
+ ``os.replace``) so a concurrent reader never observes a torn entry
and a crashed writer never corrupts the store.  A disk hit is served
only when the header's format, fingerprint and the sha256 of the text
all match; anything else (an older format, a renamed or altered file)
is a miss, and the next store replaces it.  The in-memory LRU tier
keeps the hottest texts; hit/miss/eviction counters live in a
:class:`~repro.metrics.CounterBag` so the service surfaces them
through the same layer as every other counter in the system.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.metrics import CounterBag, RunMetrics, metrics_record
from repro.sim.trace_export import TraceData
from repro.workloads.base import RunResult

#: Bump when the on-disk entry schema changes, or when entries stored
#: before a change lack what a fresh run now carries (format 2 entries
#: of traced runs of six workloads had no timeline); mismatched entries
#: are treated as misses (and overwritten on the next store).
CACHE_FORMAT = 3


# ----------------------------------------------------------------------
# RunResult <-> JSON payload
# ----------------------------------------------------------------------
def result_to_payload(result: RunResult) -> Dict[str, Any]:
    """JSON-ready rendering of a run result, lossless where possible.

    ``coalesce.*`` counters are *included* (they are excluded from the
    byte-identity surface, but a cache entry should preserve the run
    verbatim); :func:`canonical_result_json` is the comparison surface.
    """
    payload: Dict[str, Any] = {
        "workload": result.workload,
        "config": result.config,
        "seed": result.seed,
        "metrics": dict(result.metrics),
    }
    if result.run_metrics is not None:
        payload["run_metrics"] = result.run_metrics.as_dict(
            include_coalesce=True)
    if result.trace is not None:
        payload["trace"] = result.trace.as_dict()
    return payload


def result_from_payload(payload: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_payload`."""
    run_metrics = payload.get("run_metrics")
    trace = payload.get("trace")
    return RunResult(
        workload=payload["workload"],
        config=payload["config"],
        seed=payload["seed"],
        metrics=dict(payload["metrics"]),
        run_metrics=(RunMetrics.from_dict(run_metrics)
                     if run_metrics is not None else None),
        trace=(TraceData.from_dict(trace)
               if trace is not None else None),
    )


def result_text(result: RunResult) -> str:
    """The canonical JSON text of :func:`result_to_payload`: what the
    cache stores and what a ``result`` response carries per task."""
    return json.dumps(result_to_payload(result), sort_keys=True)


def canonical_result_json(result: RunResult) -> str:
    """The byte-identity surface of one run.

    Deterministic JSON (sorted keys, no whitespace variance) over the
    same observable surface the golden fixtures pin: workload metrics,
    the :class:`RunMetrics` snapshot *without* ``coalesce.*``
    self-measurement counters, and the trace when present.  Two runs
    are "byte-identical" for the service's guarantees iff these
    strings match.
    """
    surface = metrics_record(result)
    if result.trace is not None:
        surface["trace"] = result.trace.as_dict()
    return json.dumps(surface, sort_keys=True)


# ----------------------------------------------------------------------
# The cache: an LRU memory tier over an optional disk tier
# ----------------------------------------------------------------------
def _entry_header(key: str, body: bytes) -> bytes:
    """The header line of an entry holding ``body`` under ``key``."""
    header = {"format": CACHE_FORMAT, "fingerprint": key,
              "sha256": hashlib.sha256(body).hexdigest()}
    return (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")


class ResultCache:
    """Fingerprint-keyed result store: LRU memory tier, optional disk tier.

    With ``directory=None`` the cache lives in memory only, bounded at
    ``max_memory_entries`` texts (``None``: unbounded, as for the
    CLI's one-invocation cache): an evicted entry is a plain miss.
    With a directory every store also lands in an entry file, and the
    memory tier is a front over the disk tier.  The backends use the
    object API (:meth:`lookup` / :meth:`store`; a hit is parsed into a
    fresh :class:`~repro.workloads.base.RunResult`); the service
    stores and reads payload texts directly via :meth:`store_text` /
    :meth:`lookup_text`, so a response never re-serializes a result.

    The disk tier can be bounded too: pass ``max_disk_entries`` and/or
    ``max_disk_bytes`` and the store evicts least-recently-used
    entries — mirroring the memory tier's policy — unlinking their
    files and counting ``service.cache.disk_evictions`` /
    ``service.cache.disk_evicted_bytes``.  The LRU index survives a
    restart by seeding from the directory in mtime order; lookups and
    stores promote their entry.  Both bounds default to ``None``
    (unbounded).

    Thread safety: counters and the LRU structures mutate under one
    lock, so shared use from concurrent backend executions (the
    scenario service runs each admitted batch on its own thread) keeps
    ``hits + misses == lookups`` exact.  Disk I/O happens outside the
    lock; atomic replace makes concurrent writers of the same
    fingerprint last-writer-wins with no torn state (both wrote the
    identical bytes anyway — see the module docstring's identity
    argument).
    """

    def __init__(self, directory: Optional[str] = None,
                 max_memory_entries: Optional[int] = 256,
                 max_disk_entries: Optional[int] = None,
                 max_disk_bytes: Optional[int] = None) -> None:
        if max_memory_entries is not None and max_memory_entries < 0:
            raise ValueError("max_memory_entries must be >= 0")
        if max_disk_entries is not None and max_disk_entries < 1:
            raise ValueError("max_disk_entries must be >= 1")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError("max_disk_bytes must be >= 1")
        self.directory = directory
        self.max_memory_entries = max_memory_entries
        self.max_disk_entries = max_disk_entries
        self.max_disk_bytes = max_disk_bytes
        self._memory: "OrderedDict[str, str]" = OrderedDict()
        #: Disk-tier LRU index: fingerprint -> entry size in bytes,
        #: oldest first.  Seeded from the directory (mtime order) so a
        #: restarted service keeps evicting least-recently-used.
        self._disk: "OrderedDict[str, int]" = OrderedDict()
        self._disk_bytes = 0
        self._lock = threading.Lock()
        #: service.cache.* counters, surfaced by the server's ``stats``
        #: response next to the rest of the service counters.
        self.counters = CounterBag()
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._scan_disk()

    # -- counter surface -----------------------------------------------
    @property
    def hits(self) -> int:
        return int(self.counters.get("service.cache.hits"))

    @property
    def misses(self) -> int:
        return int(self.counters.get("service.cache.misses"))

    @property
    def lookups(self) -> int:
        return int(self.counters.get("service.cache.lookups"))

    @property
    def evictions(self) -> int:
        return int(self.counters.get("service.cache.evictions"))

    @property
    def disk_evictions(self) -> int:
        return int(self.counters.get("service.cache.disk_evictions"))

    @property
    def disk_bytes(self) -> int:
        """Bytes the disk tier currently holds (per the LRU index)."""
        with self._lock:
            return self._disk_bytes

    def __len__(self) -> int:
        """Entries held: the disk tier's index, or the memory tier's
        when there is no disk tier."""
        with self._lock:
            if self.directory is None:
                return len(self._memory)
            return len(self._disk)

    def stats(self) -> Dict[str, Any]:
        """Tier occupancy and bounds for the ``stats`` response."""
        with self._lock:
            return {
                "memory_entries": len(self._memory),
                "max_memory_entries": self.max_memory_entries,
                "disk_entries": len(self._disk),
                "disk_bytes": self._disk_bytes,
                "max_disk_entries": self.max_disk_entries,
                "max_disk_bytes": self.max_disk_bytes,
            }

    # -- internals -----------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _scan_disk(self) -> None:
        """Seed the disk LRU index from the directory, oldest first."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return
        found = []
        for name in names:
            if not name.endswith(".json") or name.startswith("."):
                continue
            try:
                info = os.stat(os.path.join(self.directory, name))
            except FileNotFoundError:
                continue
            found.append((info.st_mtime, name[:-len(".json")],
                          info.st_size))
        with self._lock:
            for _, key, size in sorted(found):
                self._disk[key] = size
                self._disk_bytes += size
        self._evict_disk()

    def _evict_disk(self, keep: Optional[str] = None) -> None:
        """Drop least-recently-used disk entries down to the bounds.

        ``keep`` protects the entry just stored: a single oversized
        payload must not evict itself (the store still lands; the
        *other* entries make room).  Unlinks happen outside the lock —
        a concurrent reader of a victim loses the race and records a
        plain miss, exactly as if the entry had expired earlier.
        """
        victims = []
        with self._lock:
            while self._disk:
                over_entries = (
                    self.max_disk_entries is not None
                    and len(self._disk) > self.max_disk_entries)
                over_bytes = (
                    self.max_disk_bytes is not None
                    and self._disk_bytes > self.max_disk_bytes)
                if not (over_entries or over_bytes):
                    break
                key = next(iter(self._disk))
                if key == keep and len(self._disk) == 1:
                    break
                if key == keep:
                    self._disk.move_to_end(key)
                    continue
                size = self._disk.pop(key)
                self._disk_bytes -= size
                self._memory.pop(key, None)
                self.counters.incr("service.cache.disk_evictions")
                self.counters.incr("service.cache.disk_evicted_bytes",
                                   size)
                victims.append(key)
        for key in victims:
            try:
                os.unlink(self._path(key))
            except FileNotFoundError:
                pass

    def _remember(self, key: str, text: str) -> None:
        """Promote ``key`` in the memory tier (caller holds no lock)."""
        with self._lock:
            self._memory.pop(key, None)
            if self.max_memory_entries == 0:
                return
            self._memory[key] = text
            if self.max_memory_entries is None:
                return
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)
                self.counters.incr("service.cache.evictions")

    def _read_disk(self, key: str) -> Optional[str]:
        try:
            with open(self._path(key), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        split = data.find(b"\n") + 1
        body = data[split:]
        if not split or data[:split] != _entry_header(key, body):
            return None
        return body.decode("utf-8")

    # -- payload text API ----------------------------------------------
    def lookup_text(self, key: str) -> Optional[str]:
        """The stored payload text for a fingerprint, or None (a miss)."""
        with self._lock:
            self.counters.incr("service.cache.lookups")
            text = self._memory.get(key)
            if text is not None:
                self._memory.move_to_end(key)
                if key in self._disk:
                    # Recency is unified: a hot key served from
                    # memory must not be the disk tier's LRU victim.
                    self._disk.move_to_end(key)
                self.counters.incr("service.cache.hits")
                self.counters.incr("service.cache.memory_hits")
                return text
            if self.directory is None:
                self.counters.incr("service.cache.misses")
                return None
        text = self._read_disk(key)
        with self._lock:
            if text is None:
                self.counters.incr("service.cache.misses")
                return None
            self.counters.incr("service.cache.hits")
            self.counters.incr("service.cache.disk_hits")
            if key in self._disk:
                self._disk.move_to_end(key)
        self._remember(key, text)
        return text

    def store_text(self, key: str, text: str) -> None:
        """Store one payload text in the memory tier, first persisting
        it atomically when the cache has a disk tier."""
        if self.directory is not None:
            self._write_entry(key, text)
        with self._lock:
            self.counters.incr("service.cache.stores")
        self._remember(key, text)

    def _write_entry(self, key: str, text: str) -> None:
        """Write one entry file atomically and index it."""
        body = text.encode("utf-8")
        data = _entry_header(key, body) + body
        fd, tmp_path = tempfile.mkstemp(
            prefix=f".tmp-{key[:16]}-", suffix=".json",
            dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except FileNotFoundError:
                pass
            raise
        with self._lock:
            self._disk_bytes -= self._disk.pop(key, 0)
            self._disk[key] = len(data)
            self._disk_bytes += len(data)
        self._evict_disk(keep=key)

    # -- RunResult object API (the backends') ---------------------------
    def lookup(self, key: str) -> Optional[RunResult]:
        """The stored result for a fingerprint as a fresh
        :class:`RunResult` parsed from its text, or None (a miss)."""
        text = self.lookup_text(key)
        if text is None:
            return None
        return result_from_payload(json.loads(text))

    def store(self, key: str, result: RunResult) -> None:
        self.store_text(key, result_text(result))

    def clear(self) -> None:
        """Drop every entry (memory and disk) and reset counters."""
        with self._lock:
            self._memory.clear()
            self._disk.clear()
            self._disk_bytes = 0
            self.counters = CounterBag()
        if self.directory is None:
            return
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return
        for name in names:
            if name.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except FileNotFoundError:
                    pass
