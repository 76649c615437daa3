"""Tests for the approximate algorithms: Send-Sketch, Basic-S, Improved-S, TwoLevel-S."""

from __future__ import annotations

import pytest

from repro.algorithms import (
    BasicSampling,
    HWTopk,
    ImprovedSampling,
    SendSketch,
    SendV,
    TwoLevelSampling,
)
from repro.core.haar import sparse_haar_transform
from repro.core.histogram import WaveletHistogram
from repro.core.topk_coefficients import top_k_coefficients
from repro.errors import InvalidParameterError
from repro.mapreduce.counters import CounterNames
from repro.service import RuntimeProfile

K = 15
EPSILON = 0.02


@pytest.fixture(scope="module")
def approx_setup():
    """A moderately skewed dataset with 16 splits, its runtime profile and the ideal answer."""
    from repro.data.generators import ZipfDatasetGenerator
    from repro.mapreduce.cluster import paper_cluster
    from repro.mapreduce.hdfs import HDFS

    dataset = ZipfDatasetGenerator(u=1024, alpha=1.2, seed=17).generate(60_000)
    hdfs = HDFS()
    dataset.to_hdfs(hdfs, "/data/input")
    profile = RuntimeProfile(cluster=paper_cluster(split_size_bytes=dataset.size_bytes // 16))
    reference = dataset.frequency_vector()
    ideal = WaveletHistogram.from_frequency_vector(reference, K)
    return dataset, hdfs, profile, reference, ideal


class TestSendSketch:
    def test_finds_dominant_coefficients(self, approx_setup):
        dataset, hdfs, profile, reference, ideal = approx_setup
        result = SendSketch(dataset.u, K, bytes_per_level=16 * 1024).run(
            hdfs, "/data/input", profile=profile
        )
        true_top = top_k_coefficients(sparse_haar_transform(reference.counts, dataset.u), 3)
        assert set(true_top) & set(result.histogram.coefficients)

    def test_sse_within_small_factor_of_ideal(self, approx_setup):
        dataset, hdfs, profile, reference, ideal = approx_setup
        result = SendSketch(dataset.u, K, bytes_per_level=16 * 1024).run(
            hdfs, "/data/input", profile=profile
        )
        assert result.histogram.sse(reference) <= 5 * ideal.sse(reference)

    def test_communication_is_bounded_by_sketch_size_not_data_size(self, approx_setup):
        """Each split ships at most its sketch cells, regardless of how many records it scanned."""
        dataset, hdfs, profile, _, _ = approx_setup
        from repro.sketches.wavelet import WaveletGcsSketch

        bytes_per_level = 4096
        result = SendSketch(dataset.u, K, bytes_per_level=bytes_per_level).run(
            hdfs, "/data/input", profile=profile
        )
        max_sketch_bytes = WaveletGcsSketch(dataset.u, bytes_per_level=bytes_per_level).total_cells * 12
        num_splits = result.rounds[0].num_mappers
        assert result.rounds[0].shuffle_bytes <= num_splits * max_sketch_bytes

    def test_counts_sketch_updates(self, approx_setup):
        dataset, hdfs, profile, _, _ = approx_setup
        result = SendSketch(dataset.u, K, bytes_per_level=4096).run(
            hdfs, "/data/input", profile=profile
        )
        log_u = dataset.u.bit_length() - 1
        updates = result.counters.get(CounterNames.SKETCH_UPDATE_OPS)
        # One path of log2(u)+1 coefficients per distinct key per split.
        assert updates >= (log_u + 1)
        assert updates % (log_u + 1) == 0

    def test_rejects_tiny_space_budget(self):
        with pytest.raises(InvalidParameterError):
            SendSketch(1024, K, bytes_per_level=128)


class TestSamplingAlgorithms:
    @pytest.mark.parametrize("algorithm_class", [BasicSampling, ImprovedSampling, TwoLevelSampling])
    def test_sse_within_factor_of_ideal(self, approx_setup, algorithm_class):
        dataset, hdfs, profile, reference, ideal = approx_setup
        result = algorithm_class(dataset.u, K, epsilon=EPSILON).run(
            hdfs, "/data/input", profile=profile
        )
        assert result.histogram.sse(reference) <= 3 * ideal.sse(reference)

    @pytest.mark.parametrize("algorithm_class", [BasicSampling, ImprovedSampling, TwoLevelSampling])
    def test_single_round_and_sampled_scan(self, approx_setup, algorithm_class):
        dataset, hdfs, profile, _, _ = approx_setup
        result = algorithm_class(dataset.u, K, epsilon=EPSILON).run(
            hdfs, "/data/input", profile=profile
        )
        assert result.num_rounds == 1
        # Sampling methods never scan the full input.
        assert result.counters.get(CounterNames.MAP_INPUT_RECORDS) < dataset.n
        assert result.counters.get(CounterNames.SAMPLED_RECORDS) == pytest.approx(
            1.0 / EPSILON ** 2, rel=0.25
        )

    def test_epsilon_validation(self):
        for algorithm_class in (BasicSampling, ImprovedSampling, TwoLevelSampling):
            with pytest.raises(InvalidParameterError):
                algorithm_class(1024, K, epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            TwoLevelSampling(1024, K, epsilon=0.01, threshold_scale=0)

    def test_communication_ordering_matches_section_4(self, approx_setup):
        """Basic-S ships the whole sample; the improved schemes ship (much) less."""
        dataset, hdfs, profile, _, _ = approx_setup
        basic = BasicSampling(dataset.u, K, epsilon=EPSILON, aggregate_in_mapper=False).run(
            hdfs, "/data/input", profile=profile
        )
        improved = ImprovedSampling(dataset.u, K, epsilon=EPSILON).run(
            hdfs, "/data/input", profile=profile
        )
        two_level = TwoLevelSampling(dataset.u, K, epsilon=EPSILON).run(
            hdfs, "/data/input", profile=profile
        )
        assert improved.rounds[0].shuffle_bytes < basic.rounds[0].shuffle_bytes
        assert two_level.rounds[0].shuffle_bytes < basic.rounds[0].shuffle_bytes

    def test_two_level_improves_on_improved_with_many_splits(self):
        """The sqrt(m) gap (Theorem 3) shows once m is large enough."""
        from repro.data.generators import ZipfDatasetGenerator
        from repro.mapreduce.cluster import paper_cluster
        from repro.mapreduce.hdfs import HDFS

        dataset = ZipfDatasetGenerator(u=2048, alpha=1.1, seed=23).generate(120_000)
        hdfs = HDFS()
        dataset.to_hdfs(hdfs, "/data/many-splits")
        profile = RuntimeProfile(cluster=paper_cluster(split_size_bytes=dataset.size_bytes // 64))
        epsilon = 0.005
        improved = ImprovedSampling(dataset.u, K, epsilon=epsilon).run(
            hdfs, "/data/many-splits", profile=profile
        )
        two_level = TwoLevelSampling(dataset.u, K, epsilon=epsilon).run(
            hdfs, "/data/many-splits", profile=profile
        )
        assert two_level.rounds[0].shuffle_bytes < improved.rounds[0].shuffle_bytes

    def test_basic_aggregation_flag_changes_pair_count_not_answer(self, approx_setup):
        dataset, hdfs, profile, reference, ideal = approx_setup
        aggregated = BasicSampling(dataset.u, K, epsilon=EPSILON, aggregate_in_mapper=True).run(
            hdfs, "/data/input", profile=profile
        )
        raw = BasicSampling(dataset.u, K, epsilon=EPSILON, aggregate_in_mapper=False).run(
            hdfs, "/data/input", profile=profile
        )
        assert aggregated.counters.get(CounterNames.SHUFFLE_RECORDS) <= (
            raw.counters.get(CounterNames.SHUFFLE_RECORDS)
        )
        assert aggregated.histogram.sse(reference) <= 3 * ideal.sse(reference)

    def test_two_level_null_pairs_cost_only_the_key(self, approx_setup):
        """NULL markers are 4 bytes, exact pairs 8 bytes, so bytes < 8 * pairs."""
        dataset, hdfs, profile, _, _ = approx_setup
        result = TwoLevelSampling(dataset.u, K, epsilon=0.05).run(
            hdfs, "/data/input", profile=profile
        )
        pairs = result.counters.get(CounterNames.SHUFFLE_RECORDS)
        assert pairs > 0
        assert result.rounds[0].shuffle_bytes < 8 * pairs

    def test_threshold_scale_trades_communication_for_variance(self, approx_setup):
        dataset, hdfs, profile, _, _ = approx_setup
        small_threshold = TwoLevelSampling(dataset.u, K, epsilon=EPSILON,
                                           threshold_scale=0.25).run(
            hdfs, "/data/input", profile=profile
        )
        large_threshold = TwoLevelSampling(dataset.u, K, epsilon=EPSILON,
                                           threshold_scale=4.0).run(
            hdfs, "/data/input", profile=profile
        )
        # A lower threshold emits more exact counts, i.e. more bytes.
        assert small_threshold.rounds[0].shuffle_bytes >= large_threshold.rounds[0].shuffle_bytes


class TestRelativeBehaviour:
    def test_approximations_are_cheaper_than_exact(self, approx_setup):
        """The Section 5 headline: sampling needs a fraction of Send-V's cost."""
        dataset, hdfs, profile, _, _ = approx_setup
        send_v = SendV(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        hwtopk = HWTopk(dataset.u, K).run(hdfs, "/data/input", profile=profile)
        two_level = TwoLevelSampling(dataset.u, K, epsilon=EPSILON).run(
            hdfs, "/data/input", profile=profile
        )
        assert two_level.communication_bytes < hwtopk.communication_bytes
        assert hwtopk.communication_bytes < send_v.communication_bytes

    def test_results_are_reproducible_given_seed(self, approx_setup):
        dataset, hdfs, profile, _, _ = approx_setup
        first = TwoLevelSampling(dataset.u, K, epsilon=EPSILON).run(
            hdfs, "/data/input", profile=profile.with_overrides(seed=5)
        )
        second = TwoLevelSampling(dataset.u, K, epsilon=EPSILON).run(
            hdfs, "/data/input", profile=profile.with_overrides(seed=5)
        )
        third = TwoLevelSampling(dataset.u, K, epsilon=EPSILON).run(
            hdfs, "/data/input", profile=profile.with_overrides(seed=6)
        )
        assert first.histogram.coefficients == second.histogram.coefficients
        assert first.communication_bytes == second.communication_bytes
        assert third.communication_bytes != first.communication_bytes or (
            third.histogram.coefficients != first.histogram.coefficients
        )
