"""Tests for the thread-safe query server (repro.serving.server)."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.histogram import WaveletHistogram
from repro.errors import InvalidParameterError, SynopsisNotFoundError
from repro.mapreduce.executor import (
    FunctionTaskSpec,
    SerialExecutor,
    execute_function_task,
)
from repro.serving.server import QueryServer
from repro.serving.store import StoredSynopsis, SynopsisStore
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

    def test_no_executor_or_sharding_options(self, populated_store):
        """Batches are answered in-process: nothing to shard or ship."""
        for option in ({"executor": SerialExecutor()}, {"shard_size": 512},
                       {"zero_copy": True}):
            with pytest.raises(TypeError):
                QueryServer(populated_store, **option)

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

    def test_eviction_order_matches_a_list_model(self, tmp_path, monkeypatch):
        """A scripted touch/fault sequence evicts exactly what a plain
        most-recently-used-last list would."""
        store = self._many_synopses_store(tmp_path)
        evicted = []
        release = StoredSynopsis.release

        def recording_release(handle):
            evicted.append(handle.metadata.name)
            return release(handle)

        monkeypatch.setattr(StoredSynopsis, "release", recording_release)
        bound = 3
        server = QueryServer(store, max_synopses=bound)
        model, expected = [], []
        rng = np.random.default_rng(41)
        for _ in range(300):
            name = f"syn-{int(rng.integers(6))}"
            # A resident synopsis is also reachable through its pinned
            # version: the alias key must refresh the same LRU entry.
            pinned = name in model and rng.random() < 0.3
            server.range_sums(name, [1], [256], version=1 if pinned else None)
            if name in model:
                model.remove(name)
            model.append(name)
            if len(model) > bound:
                expected.append(model.pop(0))
        assert evicted == expected
        stats = server.stats()
        assert stats["synopses_resident"] == len(model)
        assert stats["synopses_evicted"] == len(expected)
        assert stats["synopses_loaded"] == len(model)

    def test_concurrent_touches_keep_the_table_consistent(self, tmp_path):
        """Eight threads faulting and touching through both alias keys under
        a tight bound: every loaded handle is either resident or evicted
        exactly once, and every answer matches an unbounded server's."""
        store = self._many_synopses_store(tmp_path)
        loads = []
        load = store.load

        def counting_load(name, version=None):
            handle = load(name, version)
            loads.append(name)
            return handle

        store.load = counting_load
        server = QueryServer(store, max_synopses=2)
        names = [f"syn-{index}" for index in range(6)]
        workload = WorkloadGenerator(256, seed=9).generate(64, "mixed")
        reference = {name: QueryServer(store, max_synopses=None).serve_workload(name, workload)
                     for name in names}
        loads.clear()

        def hammer(seed):
            rng = np.random.default_rng(seed)
            for _ in range(200):
                name = names[int(rng.integers(len(names)))]
                version = 1 if rng.random() < 0.3 else None
                answer = server.serve_workload(name, workload, version=version)
                assert np.array_equal(answer, reference[name])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(hammer, seed) for seed in range(8)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        stats = server.stats()
        assert stats["synopses_resident"] <= 2
        assert len(loads) == stats["synopses_resident"] + stats["synopses_evicted"]

    def test_rejects_non_positive_bound(self, populated_store):
        with pytest.raises(InvalidParameterError):
            QueryServer(populated_store, max_synopses=0)


class TestExecutorPluggability:
    def test_function_task_spec_round_trip(self):
        spec = FunctionTaskSpec(task_id=3, function=len, payload=[1, 2, 3])
        result = execute_function_task(spec)
        assert result.task_id == 3
        assert result.pairs == [("result", 3, 0)]
