"""Tests for the experiment execution backends.

The contract under test: parallel execution is an implementation
detail.  A sweep run through :class:`ProcessPoolBackend` must be
bit-identical to one run through :class:`SerialBackend`, and the
result cache must make a repeated sweep cost zero simulations.
"""

import pytest

from repro.experiments.parallel import (
    ProcessPoolBackend,
    RunTask,
    SerialBackend,
    make_backend,
    task_fingerprint,
)
from repro.experiments.runner import Runner
from repro.kernel.asym_scheduler import AsymmetryAwareScheduler
from repro.service.cache import ResultCache, canonical_result_json
from repro.workloads.tpch import TpchQuery

CONFIGS = ["4f-0s", "2f-2s/8"]


def _workload():
    return TpchQuery(3, parallel_degree=4, optimization_degree=7)


def _sweep_metrics(sweep):
    """ConfigSweep contents as a plain comparable structure."""
    return {label: [(run.workload, run.config, run.seed,
                     sorted(run.metrics.items()))
                    for run in runs]
            for label, runs in sweep.results.items()}


class TestDeterminism:
    def test_parallel_sweep_is_bit_identical_to_serial(self):
        serial = Runner(configs=CONFIGS, runs=2, jobs=1).run(
            _workload())
        parallel = Runner(configs=CONFIGS, runs=2, jobs=4).run(
            _workload())
        assert _sweep_metrics(serial) == _sweep_metrics(parallel)

    def test_parallel_sweep_identical_with_scheduler_factory(self):
        serial = Runner(configs=["2f-2s/8"], runs=2,
                        scheduler_factory=AsymmetryAwareScheduler,
                        jobs=1).run(_workload())
        parallel = Runner(configs=["2f-2s/8"], runs=2,
                          scheduler_factory=AsymmetryAwareScheduler,
                          jobs=4).run(_workload())
        assert _sweep_metrics(serial) == _sweep_metrics(parallel)

    def test_results_preserve_task_order(self):
        """Task order holds on every call, and later calls reuse the
        warm pool the first one started."""
        backend = ProcessPoolBackend(jobs=2)
        tasks = [RunTask(_workload(), config, seed)
                 for config in CONFIGS for seed in (100, 101)]
        try:
            results = backend.execute(tasks)
            again = backend.execute(tasks)
        finally:
            backend.shutdown()
        assert [(r.config, r.seed) for r in results] == \
            [(t.config, t.seed) for t in tasks]
        assert [canonical_result_json(r) for r in again] == \
            [canonical_result_json(r) for r in results]
        assert backend.counters.get("service.pool.starts") == 1


class TestMetricsDeterminism:
    """RunMetrics are part of the bit-identical contract."""

    @staticmethod
    def _metrics_json(sweep):
        return {label: [run.run_metrics.to_json() for run in runs]
                for label, runs in sweep.results.items()}

    def test_run_metrics_byte_identical_serial_vs_parallel(self):
        serial = Runner(configs=CONFIGS, runs=2, jobs=1).run(
            _workload())
        parallel = Runner(configs=CONFIGS, runs=2, jobs=4).run(
            _workload())
        assert self._metrics_json(serial) == \
            self._metrics_json(parallel)
        # ...and so are the deterministic merges, per config and
        # sweep-wide.
        for label in CONFIGS:
            assert serial.merged_metrics(label).to_json() == \
                parallel.merged_metrics(label).to_json()
        assert serial.merged_metrics().to_json() == \
            parallel.merged_metrics().to_json()

    def test_merged_metrics_counts_all_runs(self):
        sweep = Runner(configs=CONFIGS, runs=3, jobs=1).run(_workload())
        assert sweep.merged_metrics(CONFIGS[0]).runs == 3
        assert sweep.merged_metrics().runs == 3 * len(CONFIGS)

    def test_merged_metrics_requires_run_metrics(self):
        sweep = Runner(configs=["4f-0s"], runs=1, jobs=1).run(
            _workload())
        sweep.results["4f-0s"][0].run_metrics = None
        with pytest.raises(ValueError):
            sweep.merged_metrics("4f-0s")


class TestResultCache:
    def test_second_sweep_runs_zero_simulations(self):
        cache = ResultCache()
        backend = SerialBackend(cache=cache)
        runner = Runner(configs=CONFIGS, runs=2, backend=backend)
        first = runner.run(_workload())
        after_first = backend.simulations_run
        assert after_first == len(CONFIGS) * 2
        second = runner.run(_workload())
        assert backend.simulations_run == after_first
        assert _sweep_metrics(first) == _sweep_metrics(second)

    def test_cache_shared_across_backends(self):
        cache = ResultCache()
        SerialBackend(cache=cache).execute(
            [RunTask(_workload(), "4f-0s", 100)])
        warm = ProcessPoolBackend(jobs=2, cache=cache)
        warm.execute([RunTask(_workload(), "4f-0s", 100)])
        assert warm.simulations_run == 0

    def test_distinct_inputs_are_cache_misses(self):
        cache = ResultCache()
        backend = SerialBackend(cache=cache)
        backend.execute([RunTask(_workload(), "4f-0s", 100),
                         RunTask(_workload(), "4f-0s", 101),
                         RunTask(_workload(), "2f-2s/8", 100)])
        assert backend.simulations_run == 3

    def test_accounting_exact_under_concurrent_execute(self):
        """Regression: hit/miss accounting raced under concurrency.

        Two backends sharing one cache and executing overlapping task
        lists from concurrent threads must keep the counter invariant
        ``hits + misses == lookups`` exact — the unlocked counters
        used to lose updates when lookups interleaved.
        """
        import threading
        from concurrent.futures import ThreadPoolExecutor

        cache = ResultCache()
        tasks = [RunTask(_workload(), config, seed)
                 for config in CONFIGS for seed in (100, 101)]
        barrier = threading.Barrier(3)

        def execute():
            backend = ProcessPoolBackend(jobs=2, cache=cache)
            barrier.wait()
            for _ in range(3):
                backend.execute(tasks)
            return backend

        with ThreadPoolExecutor(max_workers=3) as pool:
            backends = [future.result()
                        for future in [pool.submit(execute)
                                       for _ in range(3)]]
        assert cache.lookups == 3 * 3 * len(tasks)
        assert cache.hits + cache.misses == cache.lookups
        # Every distinct task simulated at least once, and the warm
        # iterations were all hits.
        assert cache.misses >= len(tasks)
        total = sum(b.simulations_run for b in backends)
        assert total == cache.misses


class TestFingerprint:
    def test_same_task_same_fingerprint(self):
        a = RunTask(_workload(), "4f-0s", 100)
        b = RunTask(_workload(), "4f-0s", 100)
        assert task_fingerprint(a) == task_fingerprint(b)

    @pytest.mark.parametrize("other", [
        RunTask(_workload(), "4f-0s", 101),          # seed
        RunTask(_workload(), "2f-2s/8", 100),        # config
        RunTask(TpchQuery(3, parallel_degree=8,      # workload params
                          optimization_degree=7), "4f-0s", 100),
        RunTask(_workload(), "4f-0s", 100,           # scheduler
                AsymmetryAwareScheduler),
    ])
    def test_any_input_change_changes_fingerprint(self, other):
        base = RunTask(_workload(), "4f-0s", 100)
        assert task_fingerprint(base) != task_fingerprint(other)


class TestMakeBackend:
    def test_none_zero_and_one_are_serial(self):
        for jobs in (None, 0, 1):
            assert isinstance(make_backend(jobs), SerialBackend)

    def test_larger_counts_build_a_pool(self):
        backend = make_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3

    def test_runner_defaults_to_serial(self):
        assert isinstance(Runner().backend, SerialBackend)
