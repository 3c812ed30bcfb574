"""Tests for the result cache (:class:`repro.service.cache.ResultCache`).

The contracts under test: a cached payload round-trips a
:class:`RunResult` losslessly (the warm path is byte-identical to the
cold path on the canonical surface), the disk tier survives process
boundaries and serves an entry only when its header's format,
fingerprint and sha256 match the stored text, the LRU memory tier
evicts without losing data when a disk tier backs it (and is the
whole cache when none does), and the hit/miss counters stay exact
(``hits + misses == lookups``) under concurrent use.
"""

import hashlib
import json
import os
import threading
from dataclasses import replace

import pytest

from repro.experiments.parallel import (
    RunTask,
    SerialBackend,
    execute_task,
    make_backend,
    task_fingerprint,
)
from repro.experiments.runner import Runner
from repro.service.cache import (
    CACHE_FORMAT,
    ResultCache,
    canonical_result_json,
    result_from_payload,
    result_text,
    result_to_payload,
)
from repro.service.protocol import parse_scenario
from repro.workloads.base import RunOptions
from repro.workloads.lockstress import LockStress
from repro.workloads.specjbb import SpecJBB
from repro.workloads.tpch import TpchQuery

from tests.harness import TRACED


def _task(seed=100, config="2f-2s/8"):
    return RunTask(
        TpchQuery(3, parallel_degree=2, optimization_degree=3),
        config, seed)


def _run(task):
    return execute_task(task)


class TestPayloadRoundTrip:
    def test_round_trip_is_lossless_on_the_canonical_surface(self):
        result = _run(_task())
        rebuilt = result_from_payload(result_to_payload(result))
        assert canonical_result_json(rebuilt) == \
            canonical_result_json(result)

    def test_round_trip_preserves_run_metrics_verbatim(self):
        result = _run(_task())
        rebuilt = result_from_payload(result_to_payload(result))
        assert rebuilt.run_metrics is not None
        assert rebuilt.run_metrics.as_dict(include_coalesce=True) == \
            result.run_metrics.as_dict(include_coalesce=True)

    def test_round_trip_preserves_traces(self):
        result = _run(replace(_task(), options=TRACED))
        assert result.trace is not None
        rebuilt = result_from_payload(result_to_payload(result))
        assert rebuilt.trace is not None
        assert rebuilt.trace.as_dict() == result.trace.as_dict()
        assert canonical_result_json(rebuilt) == \
            canonical_result_json(result)

    def test_payload_is_json_serializable_deterministically(self):
        payload = result_to_payload(_run(_task()))
        once = json.dumps(payload, sort_keys=True)
        again = json.dumps(
            result_to_payload(_run(_task())), sort_keys=True)
        assert once == again


class TestDiskResultCache:
    def test_store_then_lookup_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = _run(_task())
        cache.store("abc", result)
        hit = cache.lookup("abc")
        assert hit is not None
        assert canonical_result_json(hit) == \
            canonical_result_json(result)
        assert cache.hits == 1 and cache.misses == 0
        assert len(cache) == 1

    def test_miss_on_unknown_key(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.lookup("nope") is None
        assert (cache.hits, cache.misses, cache.lookups) == (0, 1, 1)

    def test_entries_survive_a_new_cache_instance(self, tmp_path):
        result = _run(_task())
        ResultCache(str(tmp_path)).store("abc", result)
        reopened = ResultCache(str(tmp_path))
        hit = reopened.lookup("abc")
        assert hit is not None
        assert canonical_result_json(hit) == \
            canonical_result_json(result)
        assert reopened.counters.get("service.cache.disk_hits") == 1

    def test_lru_front_evicts_but_disk_still_serves(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_memory_entries=2)
        result = _run(_task())
        for key in ("a", "b", "c"):
            cache.store(key, result)
        assert cache.evictions == 1
        assert len(cache) == 3  # disk keeps everything
        hit = cache.lookup("a")  # evicted from memory -> disk hit
        assert hit is not None
        assert cache.counters.get("service.cache.disk_hits") == 1
        assert cache.counters.get("service.cache.memory_hits") == 0

    def test_memory_front_can_be_disabled(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_memory_entries=0)
        cache.store("a", _run(_task()))
        assert cache.lookup("a") is not None
        assert cache.counters.get("service.cache.disk_hits") == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.lookup("bad") is None

    def test_format_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        entry = {"format": CACHE_FORMAT + 1, "fingerprint": "old",
                 "result": result_to_payload(_run(_task()))}
        (tmp_path / "old.json").write_text(json.dumps(entry))
        assert cache.lookup("old") is None

    def test_altered_payload_text_is_never_served(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_memory_entries=0)
        cache.store("abc", _run(_task()))
        path = tmp_path / "abc.json"
        data = path.read_bytes()
        altered = data.replace(b'"seed": 100', b'"seed": 101')
        assert altered != data
        json.loads(altered.split(b"\n", 1)[1])  # still valid JSON
        path.write_bytes(altered)
        assert cache.lookup_text("abc") is None
        assert ResultCache(str(tmp_path)).lookup("abc") is None

    def test_format_1_entry_is_a_miss_and_replaced(self, tmp_path):
        result = _run(_task())
        entry = {"format": 1, "fingerprint": "abc",
                 "result": result_to_payload(result)}
        (tmp_path / "abc.json").write_text(
            json.dumps(entry, sort_keys=True))
        cache = ResultCache(str(tmp_path))
        assert cache.lookup_text("abc") is None
        cache.store("abc", result)
        header, body = (tmp_path / "abc.json").read_bytes().split(
            b"\n", 1)
        assert json.loads(header) == {
            "fingerprint": "abc", "format": CACHE_FORMAT,
            "sha256": hashlib.sha256(body).hexdigest()}
        assert body.decode("utf-8") == result_text(result)
        reopened = ResultCache(str(tmp_path))
        assert reopened.lookup_text("abc") == result_text(result)

    def test_clear_drops_disk_and_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store("a", _run(_task()))
        cache.lookup("a")
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.lookups) == (0, 0)
        assert cache.lookup("a") is None

    def test_backends_accept_it_as_a_result_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        backend = SerialBackend(cache=cache)
        tasks = [_task(seed) for seed in (100, 101)]
        backend.execute(tasks)
        assert backend.simulations_run == 2
        backend.execute(tasks)
        assert backend.simulations_run == 2  # all warm
        assert cache.hits == 2

    def test_counters_exact_under_concurrent_use(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_memory_entries=4)
        text = result_text(_run(_task()))
        keys = [f"k{i}" for i in range(8)]
        barrier = threading.Barrier(4)

        def hammer():
            barrier.wait()
            for _ in range(25):
                for key in keys:
                    if cache.lookup_text(key) is None:
                        cache.store_text(key, text)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.lookups == 4 * 25 * len(keys)
        assert cache.hits + cache.misses == cache.lookups


class TestMemoryOnlyCache:
    def test_evicted_entry_is_a_miss_and_no_file_is_written(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ResultCache(max_memory_entries=2)
        result = _run(_task())
        for key in ("a", "b", "c"):
            cache.store(key, result)
        assert cache.evictions == 1
        assert len(cache) == 2
        assert cache.lookup("a") is None  # evicted: nothing behind it
        hit = cache.lookup("c")
        assert canonical_result_json(hit) == \
            canonical_result_json(result)
        assert (cache.hits, cache.misses, cache.lookups) == (1, 1, 2)
        assert cache.stats()["disk_entries"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_unbounded_memory_tier_keeps_every_entry(self):
        # The CLI sizes its cache to the invocation: more distinct
        # tasks than the default 256 entries, and none may be evicted.
        cache = ResultCache(max_memory_entries=None)
        texts = {f"key-{index}": f"text-{index}" for index in range(300)}
        for key, text in texts.items():
            cache.store_text(key, text)
        assert cache.evictions == 0
        assert len(cache) == 300
        assert {key: cache.lookup_text(key) for key in texts} == texts
        assert cache.counters.get("service.cache.memory_hits") == 300
        assert (cache.hits, cache.misses) == (300, 0)


class TestBoundedDiskTier:
    """The disk tier's LRU bound (mirrors the memory front).

    These tests always use ``tmp_path`` — never the shared
    ``REPRO_SERVICE_CACHE_DIR`` drift directory, which must keep its
    entries across CI steps.
    """

    @pytest.fixture(scope="class")
    def text(self):
        return result_text(_run(_task()))

    def test_entry_bound_evicts_oldest(self, tmp_path, text):
        cache = ResultCache(str(tmp_path), max_disk_entries=2)
        for key in ("k0", "k1", "k2"):
            cache.store_text(key, text)
        assert len(cache) == 2
        assert cache.disk_evictions == 1
        assert cache.lookup_text("k0") is None  # evicted
        assert cache.lookup_text("k1") is not None
        assert cache.lookup_text("k2") is not None

    def test_lookup_promotes_against_eviction(self, tmp_path, text):
        cache = ResultCache(str(tmp_path), max_disk_entries=2)
        cache.store_text("a", text)
        cache.store_text("b", text)
        assert cache.lookup_text("a") is not None  # promote a
        cache.store_text("c", text)  # evicts b, not a
        assert cache.lookup_text("b") is None
        assert cache.lookup_text("a") is not None

    def test_byte_bound_and_accounting(self, tmp_path, text):
        # Same-length keys: the stored entry embeds its fingerprint,
        # so equal keys mean equal entry sizes.
        cache = ResultCache(str(tmp_path))
        cache.store_text("k0", text)
        entry_bytes = cache.disk_bytes
        assert entry_bytes > 0
        cache.clear()

        bounded = ResultCache(str(tmp_path),
                              max_disk_bytes=entry_bytes)
        bounded.store_text("k1", text)
        bounded.store_text("k2", text)
        assert len(bounded) == 1
        assert bounded.disk_bytes <= entry_bytes
        assert bounded.disk_evictions == 1
        assert bounded.counters.get(
            "service.cache.disk_evicted_bytes") == entry_bytes
        assert bounded.lookup_text("k2") is not None

    def test_just_stored_entry_is_never_the_victim(self, tmp_path, text):
        cache = ResultCache(str(tmp_path), max_disk_entries=1)
        for key in ("x", "y", "z"):
            cache.store_text(key, text)
            assert cache.lookup_text(key) is not None
        assert len(cache) == 1

    def test_reopen_applies_a_tighter_bound(self, tmp_path, text):
        unbounded = ResultCache(str(tmp_path))
        for index in range(4):
            unbounded.store_text(f"k{index}", text)
        assert len(unbounded) == 4
        reopened = ResultCache(str(tmp_path), max_disk_entries=2)
        assert len(reopened) == 2
        assert reopened.disk_evictions == 2

    def test_eviction_drops_memory_front_too(self, tmp_path, text):
        cache = ResultCache(str(tmp_path), max_disk_entries=1)
        cache.store_text("a", text)
        cache.store_text("b", text)
        assert cache.lookup_text("a") is None
        assert cache.counters.get(
            "service.cache.memory_hits") == 0

    def test_stats_reports_bounds_and_occupancy(self, tmp_path, text):
        cache = ResultCache(str(tmp_path), max_disk_entries=8,
                                max_disk_bytes=1 << 20)
        cache.store_text("a", text)
        stats = cache.stats()
        assert stats["disk_entries"] == 1
        assert stats["disk_bytes"] == cache.disk_bytes > 0
        assert stats["max_disk_entries"] == 8
        assert stats["max_disk_bytes"] == 1 << 20
        assert stats["memory_entries"] == 1

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path), max_disk_entries=0)
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path), max_disk_bytes=0)

    def test_unbounded_by_default(self, tmp_path, text):
        cache = ResultCache(str(tmp_path))
        for index in range(6):
            cache.store_text(f"k{index}", text)
        assert len(cache) == 6
        assert cache.disk_evictions == 0
        assert cache.stats()["max_disk_entries"] is None


class TestPersistentCacheDrift:
    """Cross-process cache identity: the CI drift leg's anchor.

    The first run (cold step) simulates each anchor, stores it, and
    records its fingerprint in a ``drift-<anchor>.key`` file beside
    the entries; a later run in a *different process* pointed at the
    same directory via ``REPRO_SERVICE_CACHE_DIR`` (warm step) must
    compute the same fingerprint, hit the stored entry, and get a
    result whose canonical JSON is byte-identical to a fresh local
    simulation.  A warm step that misses an entry the cold step
    stored fails: any drift in fingerprinting, serialization or
    simulation determinism shows.  The SPECjbb anchor carries a
    ``GCKind``, so it covers enum rendering in keys.
    """

    @pytest.fixture
    def cache_dir(self, tmp_path):
        return os.environ.get("REPRO_SERVICE_CACHE_DIR",
                              str(tmp_path))

    def _anchor_task(self):
        return RunTask(
            LockStress(n_threads=4, duration=0.01), "2f-2s/8", 7)

    def _specjbb_anchor_task(self):
        return RunTask(
            SpecJBB(warehouses=4, measurement_seconds=0.05,
                    warmup_seconds=0.02), "2f-2s/8", 7)

    def _check_anchor(self, cache_dir, name, make_task):
        cache = ResultCache(cache_dir)
        key = task_fingerprint(make_task())
        fresh = _run(make_task())
        marker = os.path.join(cache_dir, f"drift-{name}.key")
        if os.path.exists(marker):  # warm step
            with open(marker, encoding="ascii") as handle:
                assert handle.read() == key, \
                    f"{name}: fingerprint drifted since the cold step"
        else:  # cold step: seed the cache
            cache.store(key, fresh)
            with open(marker, "w", encoding="ascii") as handle:
                handle.write(key)
        stored = cache.lookup(key)
        assert stored is not None, \
            f"{name}: missed the entry the cold step stored"
        assert canonical_result_json(stored) == \
            canonical_result_json(fresh)

    def test_warm_payload_matches_a_fresh_simulation(self, cache_dir):
        self._check_anchor(cache_dir, "lockstress", self._anchor_task)

    def test_warm_specjbb_payload_matches_a_fresh_simulation(
            self, cache_dir):
        self._check_anchor(cache_dir, "specjbb",
                           self._specjbb_anchor_task)

    def test_fingerprint_stable_across_equal_tasks(self, cache_dir):
        assert task_fingerprint(self._anchor_task()) == \
            task_fingerprint(self._anchor_task())

    def test_fingerprint_folds_trace_and_coalesce_overrides(self):
        task = self._anchor_task()

        def key(**options):
            return task_fingerprint(
                replace(task, options=RunOptions(**options)))

        base = key(trace=None, coalesce=True)
        traced = key(trace=frozenset({"exec"}), coalesce=True)
        sliced = key(trace=None, coalesce=False)
        assert len({base, traced, sliced}) == 3

    def test_service_overrides_match_ambient_defaults(self):
        """Service keys coincide with CLI keys for the same settings."""
        workload = self._anchor_task().workload

        def cli_key(options):
            backend = make_backend(0, options=options)
            task, = Runner(configs=["2f-2s/8"], runs=1, base_seed=7,
                           backend=backend).tasks(workload)
            return task_fingerprint(task)

        def service_key(**settings):
            request = parse_scenario({
                "type": "sweep", "workload": "lockstress",
                "params": {"n_threads": 4, "duration": 0.01},
                "configs": ["2f-2s/8"], "base_seed": 7, **settings})
            return task_fingerprint(request.tasks[0])

        assert service_key() == cli_key(RunOptions())
        assert service_key(trace=["exec"], coalesce=False) == cli_key(
            RunOptions(trace=frozenset({"exec"}), coalesce=False))
