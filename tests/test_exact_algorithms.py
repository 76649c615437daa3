"""Tests for the exact MapReduce algorithms: Send-V, Send-Coef and H-WTopk."""

from __future__ import annotations

import pytest

from repro.algorithms import HWTopk, SendCoef, SendV
from repro.core.haar import sparse_haar_transform
from repro.core.histogram import WaveletHistogram
from repro.core.topk_coefficients import top_k_coefficients
from repro.mapreduce.counters import CounterNames
from repro.service import RuntimeProfile

K = 20


@pytest.fixture(scope="module")
def exact_setup(request):
    """Shared dataset, HDFS and runtime profile plus the centralized reference answer."""
    from repro.data.generators import ZipfDatasetGenerator
    from repro.mapreduce.cluster import paper_cluster
    from repro.mapreduce.hdfs import HDFS

    dataset = ZipfDatasetGenerator(u=256, alpha=1.1, seed=7).generate(20_000)
    hdfs = HDFS()
    dataset.to_hdfs(hdfs, "/data/input")
    profile = RuntimeProfile(cluster=paper_cluster(split_size_bytes=dataset.size_bytes // 8))
    reference = dataset.frequency_vector()
    expected = top_k_coefficients(sparse_haar_transform(reference.counts, dataset.u), K)
    return dataset, hdfs, profile, reference, expected


def _assert_same_topk(actual, expected):
    """Same coefficient values per index; tie indices may differ only at equal magnitude."""
    assert len(actual) == len(expected)
    for index, value in actual.items():
        if index in expected:
            assert value == pytest.approx(expected[index], rel=1e-9)
    actual_magnitudes = sorted((abs(v) for v in actual.values()), reverse=True)
    expected_magnitudes = sorted((abs(v) for v in expected.values()), reverse=True)
    assert actual_magnitudes == pytest.approx(expected_magnitudes, rel=1e-9)


class TestSendV:
    def test_matches_centralized_topk(self, exact_setup):
        dataset, hdfs, profile, _, expected = exact_setup
        result = SendV(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        _assert_same_topk(result.histogram.coefficients, expected)

    def test_single_round_and_metrics(self, exact_setup):
        dataset, hdfs, profile, _, _ = exact_setup
        result = SendV(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        assert result.num_rounds == 1
        assert result.communication_bytes > 0
        assert result.simulated_time_s > 0

    def test_communication_counts_every_distinct_key_per_split(self, exact_setup):
        dataset, hdfs, profile, _, _ = exact_setup
        result = SendV(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        shuffled_pairs = result.counters.get(CounterNames.SHUFFLE_RECORDS)
        # Every split ships one pair per distinct key it holds, 8 bytes each.
        assert result.rounds[0].shuffle_bytes == shuffled_pairs * 8
        assert shuffled_pairs >= dataset.frequency_vector().distinct_keys

    def test_sse_equals_ideal(self, exact_setup):
        dataset, hdfs, profile, reference, _ = exact_setup
        result = SendV(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        ideal = WaveletHistogram.from_frequency_vector(reference, K).sse(reference)
        assert result.histogram.sse(reference) == pytest.approx(ideal, rel=1e-9)

    def test_combiner_variant_gives_same_answer(self, exact_setup):
        dataset, hdfs, profile, _, expected = exact_setup
        result = SendV(dataset.u, K, use_combiner=True).run(hdfs, "/data/input", profile=profile)
        _assert_same_topk(result.histogram.coefficients, expected)

    @pytest.mark.parametrize("num_reducers", [2, 3, 7])
    def test_multi_reducer_output_is_identical_to_single_reducer(self, exact_setup,
                                                                 num_reducers):
        """Sharded aggregation: the multi-reducer top-k equals the 1-reducer run
        bit for bit, on both data planes."""
        dataset, hdfs, profile, _, _ = exact_setup
        baseline = SendV(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        for data_plane in ("batch", "records"):
            sharded = SendV(dataset.u, K, num_reducers=num_reducers).run(
                hdfs, "/data/input", profile=profile.with_overrides(data_plane=data_plane))
            assert (sharded.histogram.coefficients
                    == baseline.histogram.coefficients)
            assert sharded.rounds[0].num_reducers == num_reducers
            # The sharding changes where the aggregation runs, not what is
            # shuffled: the communication metric is unchanged.
            assert sharded.rounds[0].shuffle_bytes == baseline.rounds[0].shuffle_bytes

    def test_multi_reducer_distributes_the_key_groups(self, exact_setup):
        dataset, hdfs, profile, _, _ = exact_setup
        result = SendV(dataset.u, K, num_reducers=4).run(hdfs, "/data/input", profile=profile)
        # Every reducer received a share of the keys: the emitted partial
        # vectors jointly cover every distinct key exactly once.
        emitted_keys = [key for key, _ in result.rounds[0].output]
        assert len(emitted_keys) == len(set(emitted_keys))
        assert len(emitted_keys) == dataset.frequency_vector().distinct_keys

    def test_invalid_num_reducers_raises(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            SendV(256, K, num_reducers=0)


class TestSendCoef:
    def test_matches_centralized_topk(self, exact_setup):
        dataset, hdfs, profile, _, expected = exact_setup
        result = SendCoef(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        _assert_same_topk(result.histogram.coefficients, expected)

    def test_ships_more_pairs_than_send_v_on_large_domains(self):
        """Figure 12's observation: local coefficients outnumber local distinct keys."""
        from repro.data.generators import ZipfDatasetGenerator
        from repro.mapreduce.cluster import paper_cluster
        from repro.mapreduce.hdfs import HDFS

        dataset = ZipfDatasetGenerator(u=4096, alpha=1.1, seed=3).generate(20_000)
        hdfs = HDFS()
        dataset.to_hdfs(hdfs, "/data/input")
        profile = RuntimeProfile(cluster=paper_cluster(split_size_bytes=dataset.size_bytes // 8))
        send_v = SendV(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        send_coef = SendCoef(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        assert send_coef.communication_bytes > send_v.communication_bytes

    def test_counts_transform_work(self, exact_setup):
        dataset, hdfs, profile, _, _ = exact_setup
        result = SendCoef(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        assert result.counters.get(CounterNames.WAVELET_TRANSFORM_OPS) > 0


class TestHWTopk:
    def test_matches_centralized_topk(self, exact_setup):
        dataset, hdfs, profile, _, expected = exact_setup
        result = HWTopk(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        _assert_same_topk(result.histogram.coefficients, expected)

    def test_uses_three_rounds(self, exact_setup):
        dataset, hdfs, profile, _, _ = exact_setup
        result = HWTopk(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        assert result.num_rounds == 3
        assert [round_result.job_name for round_result in result.rounds] == [
            f"H-WTopk-round{i}(k={K})" for i in (1, 2, 3)
        ]

    def test_thresholds_and_candidates_reported(self, exact_setup):
        dataset, hdfs, profile, _, _ = exact_setup
        result = HWTopk(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        assert result.details["T1"] >= 0
        assert result.details["T2"] >= result.details["T1"]
        assert result.details["candidate_set_size"] >= K

    def test_communicates_less_than_send_v(self, exact_setup):
        dataset, hdfs, profile, _, _ = exact_setup
        send_v = SendV(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        hwtopk = HWTopk(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        assert hwtopk.communication_bytes < send_v.communication_bytes

    def test_round_one_ships_at_most_2km_pairs(self, exact_setup):
        dataset, hdfs, profile, _, _ = exact_setup
        result = HWTopk(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        round1 = result.rounds[0]
        m = result.details["num_splits"]
        assert round1.counters.get(CounterNames.SHUFFLE_RECORDS) <= 2 * K * m

    def test_works_with_different_k(self, exact_setup):
        dataset, hdfs, profile, reference, _ = exact_setup
        for k in (1, 5, 50):
            expected = top_k_coefficients(
                sparse_haar_transform(reference.counts, dataset.u), k
            )
            result = HWTopk(dataset.u, k).run(hdfs, "/data/input", profile=profile)
            _assert_same_topk(result.histogram.coefficients, expected)

    def test_state_is_read_only_arrays(self, exact_setup):
        """Split and coordinator state are frozen arrays."""
        import numpy as np

        from repro.mapreduce.plan import execute_plan
        from repro.mapreduce.runtime import JobRunner

        dataset, hdfs, profile, _, _ = exact_setup
        runner = JobRunner(hdfs, cluster=profile.cluster)
        algorithm = HWTopk(dataset.u, K)
        outcome = execute_plan(algorithm.create_plan("/data/input"), runner)
        store = runner.state_store
        threshold = outcome.details["T1"] / outcome.details["num_splits"]
        for split_id in range(outcome.details["num_splits"]):
            indices, values = store.peek("split", split_id)["remaining"]
            assert indices.dtype == np.int64 and values.dtype == np.float64
            assert not indices.flags.writeable and not values.flags.writeable
            assert np.all(np.diff(indices) > 0)
            assert np.all(np.abs(values) <= threshold)  # round 2 sent the rest
        coordinator = store.peek("reducer", 0)
        counts, split_ids = coordinator["reported"]
        partial_indices, _ = coordinator["partial"]
        assert counts.size == partial_indices.size and counts.sum() == split_ids.size
        assert coordinator["candidates"].size == outcome.details["candidate_set_size"]
        assert not any(array.flags.writeable for array in (counts, split_ids,
                                                           coordinator["candidates"]))

    def test_single_split_dataset(self):
        """Degenerate m=1 case: everything happens on one mapper."""
        from repro.data.generators import ZipfDatasetGenerator
        from repro.mapreduce.cluster import paper_cluster
        from repro.mapreduce.hdfs import HDFS

        dataset = ZipfDatasetGenerator(u=128, alpha=1.0, seed=11).generate(3_000)
        hdfs = HDFS()
        dataset.to_hdfs(hdfs, "/data/one")
        profile = RuntimeProfile(cluster=paper_cluster(split_size_bytes=10 * dataset.size_bytes))
        reference = dataset.frequency_vector()
        expected = top_k_coefficients(sparse_haar_transform(reference.counts, dataset.u), 10)
        result = HWTopk(dataset.u, 10).run(hdfs, "/data/one", profile=profile)
        _assert_same_topk(result.histogram.coefficients, expected)
        assert result.details["num_splits"] == 1

    def test_uniform_data_still_exact(self):
        """Low-skew data exercises the pruning paths differently but stays exact."""
        from repro.data.generators import UniformDatasetGenerator
        from repro.mapreduce.cluster import paper_cluster
        from repro.mapreduce.hdfs import HDFS

        dataset = UniformDatasetGenerator(u=256, seed=13).generate(10_000)
        hdfs = HDFS()
        dataset.to_hdfs(hdfs, "/data/uniform")
        profile = RuntimeProfile(cluster=paper_cluster(split_size_bytes=dataset.size_bytes // 4))
        reference = dataset.frequency_vector()
        expected = top_k_coefficients(sparse_haar_transform(reference.counts, dataset.u), 15)
        result = HWTopk(dataset.u, 15).run(hdfs, "/data/uniform", profile=profile)
        _assert_same_topk(result.histogram.coefficients, expected)
