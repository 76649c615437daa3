"""Tests for the thread-safe, executor-pluggable query server (repro.serving.server)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.histogram import WaveletHistogram
from repro.errors import InvalidParameterError, SynopsisNotFoundError
from repro.mapreduce.executor import (
    FunctionTaskSpec,
    ParallelExecutor,
    SerialExecutor,
    execute_function_task,
)
from repro.serving.server import QueryServer
from repro.serving.store import SynopsisStore
from repro.serving.workload import WorkloadGenerator


@pytest.fixture()
def populated_store(tmp_path):
    store = SynopsisStore(str(tmp_path / "store"))
    rng = np.random.default_rng(21)
    for name, u in (("web", 1024), ("orders", 256)):
        dense = rng.poisson(30.0, u).astype(float)
        store.save(name, WaveletHistogram.from_dense(dense, 24), algorithm="exact")
    return store


class TestQueryServer:
    def test_serves_range_point_and_selectivity(self, populated_store):
        server = QueryServer(populated_store)
        histogram = populated_store.load("web").histogram
        sums = server.range_sums("web", [1, 5], [1024, 100])
        assert sums[0] == pytest.approx(histogram.range_sum_scalar(1, 1024), abs=1e-9)
        points = server.estimates("web", [1, 2, 3])
        assert points[2] == pytest.approx(histogram.estimate(3), abs=1e-9)
        fractions = server.selectivities("web", [1], [1024])
        assert fractions[0] == pytest.approx(1.0, abs=1e-9)
        stats = server.stats()
        assert stats["queries_served"] == 2 + 3 + 1
        assert stats["batches_served"] == 3

    def test_version_pinning_and_refresh(self, populated_store):
        server = QueryServer(populated_store)
        first = server.range_sums("orders", [1], [256])
        rng = np.random.default_rng(99)
        replacement = WaveletHistogram.from_dense(
            rng.poisson(5.0, 256).astype(float), 24
        )
        populated_store.save("orders", replacement, algorithm="exact")
        # The server keeps serving its pinned snapshot until refreshed...
        assert np.array_equal(server.range_sums("orders", [1], [256]), first)
        # ...and explicit versions stay addressable after the refresh.
        server.refresh()
        v2 = server.range_sums("orders", [1], [256])
        assert v2[0] == pytest.approx(replacement.range_sum_scalar(1, 256), abs=1e-9)
        assert np.array_equal(server.range_sums("orders", [1], [256], version=1), first)

    def test_unknown_synopsis(self, populated_store):
        with pytest.raises(SynopsisNotFoundError):
            QueryServer(populated_store).range_sums("nope", [1], [2])

    def test_rejects_bad_shard_size(self, populated_store):
        with pytest.raises(InvalidParameterError):
            QueryServer(populated_store, shard_size=0)

    def test_workload_replay_matches_direct_engine(self, populated_store):
        server = QueryServer(populated_store)
        workload = WorkloadGenerator(1024, seed=8).generate(2_000, "mixed")
        served = server.serve_workload("web", workload)
        engine = populated_store.load("web").engine()
        assert np.array_equal(served, engine.range_sum_many(workload.los, workload.his))


class TestConcurrentDeterminism:
    def test_many_threads_get_bit_identical_answers(self, populated_store):
        server = QueryServer(populated_store)
        workload = WorkloadGenerator(1024, seed=13).generate(5_000, "zipfian")
        reference = server.serve_workload("web", workload)

        def serve(_):
            return server.serve_workload("web", workload)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(serve, range(16)))
        for result in results:
            assert np.array_equal(result, reference)
        stats = server.stats()
        assert stats["queries_served"] == 5_000 * 17
        assert stats["batches_served"] == 17

    def test_concurrent_mixed_batches_are_isolated(self, populated_store):
        server = QueryServer(populated_store)
        workloads = [
            WorkloadGenerator(1024, seed=seed).generate(500, "uniform")
            for seed in range(6)
        ]
        expected = [server.serve_workload("web", workload) for workload in workloads]

        def serve(index):
            return index, server.serve_workload("web", workloads[index])

        with ThreadPoolExecutor(max_workers=6) as pool:
            for index, result in pool.map(serve, list(range(6)) * 4):
                assert np.array_equal(result, expected[index])


class TestEngineTableEviction:
    def _many_synopses_store(self, tmp_path, count=6, u=256):
        store = SynopsisStore(str(tmp_path / "many"))
        rng = np.random.default_rng(3)
        for index in range(count):
            dense = rng.poisson(10.0, u).astype(float)
            store.save(f"syn-{index}", WaveletHistogram.from_dense(dense, 16),
                       algorithm="exact")
        return store

    def test_lru_bound_is_enforced(self, tmp_path):
        store = self._many_synopses_store(tmp_path)
        server = QueryServer(store, max_synopses=2)
        for index in range(6):
            server.range_sums(f"syn-{index}", [1], [256])
        stats = server.stats()
        assert stats["synopses_resident"] <= 2
        assert stats["synopses_evicted"] >= 4

    def test_eviction_preserves_answers(self, tmp_path):
        store = self._many_synopses_store(tmp_path)
        unbounded = QueryServer(store, max_synopses=None)
        bounded = QueryServer(store, max_synopses=1)
        workload = WorkloadGenerator(256, seed=5).generate(200, "mixed")
        for _ in range(2):  # second pass re-faults evicted synopses in
            for index in range(6):
                name = f"syn-{index}"
                assert np.array_equal(
                    bounded.serve_workload(name, workload),
                    unbounded.serve_workload(name, workload),
                )
        assert bounded.stats()["synopses_evicted"] > 0
        assert unbounded.stats()["synopses_evicted"] == 0

    def test_recently_used_synopses_survive(self, tmp_path):
        store = self._many_synopses_store(tmp_path)
        server = QueryServer(store, max_synopses=2)
        hot = server.synopsis("syn-0")
        for index in range(1, 6):
            server.range_sums(f"syn-{index}", [1], [256])
            server.range_sums("syn-0", [1], [256])  # keep the hot entry warm
        # The hot synopsis was never evicted: same handle throughout.
        assert server.synopsis("syn-0") is hot

    def test_rejects_non_positive_bound(self, populated_store):
        with pytest.raises(InvalidParameterError):
            QueryServer(populated_store, max_synopses=0)


class TestExecutorPluggability:
    def test_function_task_spec_round_trip(self):
        spec = FunctionTaskSpec(task_id=3, function=len, payload=[1, 2, 3])
        result = execute_function_task(spec)
        assert result.task_id == 3
        assert result.pairs == [("result", 3, 0)]

    def test_serial_executor_sharding_matches_unsharded(self, populated_store):
        workload = WorkloadGenerator(1024, seed=17).generate(4_000, "mixed")
        plain = QueryServer(populated_store).serve_workload("web", workload)
        sharded_server = QueryServer(
            populated_store, executor=SerialExecutor(), shard_size=512
        )
        sharded = sharded_server.serve_workload("web", workload)
        assert np.array_equal(sharded, plain)

    def test_small_batches_are_never_sharded(self, populated_store):
        server = QueryServer(populated_store, executor=SerialExecutor(), shard_size=512)
        small = WorkloadGenerator(1024, seed=19).generate(100, "uniform")
        plain = QueryServer(populated_store).serve_workload("web", small)
        assert np.array_equal(server.serve_workload("web", small), plain)

    def test_parallel_executor_sharding_matches_serial(self, populated_store):
        workload = WorkloadGenerator(1024, seed=23).generate(6_000, "mixed")
        plain = QueryServer(populated_store).serve_workload("web", workload)
        executor = ParallelExecutor(max_workers=2)
        try:
            server = QueryServer(populated_store, executor=executor, shard_size=1024)
            sharded = server.serve_workload("web", workload)
        finally:
            executor.close()
        np.testing.assert_allclose(sharded, plain, rtol=1e-12, atol=1e-9)
