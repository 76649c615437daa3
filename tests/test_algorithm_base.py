"""Tests for the shared algorithm driver and result type (repro.algorithms.base)."""

from __future__ import annotations

import pytest

from repro.algorithms import SendV, TwoLevelSampling
from repro.algorithms.base import AlgorithmResult, HistogramAlgorithm
from repro.core.histogram import WaveletHistogram
from repro.cost.model import CostParameters
from repro.errors import InvalidParameterError
from repro.mapreduce.counters import CounterNames
from repro.service import RuntimeProfile


class TestHistogramAlgorithmValidation:
    def test_rejects_non_positive_k(self):
        with pytest.raises(InvalidParameterError):
            SendV(1024, 0)

    def test_log2_domain_helper(self):
        assert HistogramAlgorithm.log2_domain(1024) == 10
        with pytest.raises(InvalidParameterError):
            HistogramAlgorithm.log2_domain(1000)

    def test_algorithm_exposes_name_u_k(self):
        algorithm = TwoLevelSampling(512, 7, epsilon=0.05)
        assert algorithm.name == "TwoLevel-S"
        assert algorithm.u == 512 and algorithm.k == 7


class TestRunDriver:
    def test_default_cluster_is_papers(self, hdfs_with_small_dataset, small_dataset):
        result = SendV(small_dataset.u, 5).run(hdfs_with_small_dataset, "/data/input")
        assert result.algorithm == "Send-V"
        assert result.num_rounds == 1
        # The paper's default split size (256 MB) makes this tiny file one split.
        assert result.rounds[0].num_mappers == 1

    def test_custom_cost_parameters_change_time_but_not_communication(
            self, hdfs_with_small_dataset, small_dataset, small_cluster):
        profile = RuntimeProfile(cluster=small_cluster)
        baseline = SendV(small_dataset.u, 5).run(
            hdfs_with_small_dataset, "/data/input", profile=profile
        )
        expensive = SendV(small_dataset.u, 5).run(
            hdfs_with_small_dataset, "/data/input",
            profile=profile.with_overrides(
                cost_parameters=CostParameters(seconds_per_hashmap_update=1e-3)),
        )
        assert expensive.simulated_time_s > baseline.simulated_time_s
        assert expensive.communication_bytes == baseline.communication_bytes

    def test_result_counters_match_round_counters(self, hdfs_with_small_dataset,
                                                  small_dataset, small_cluster):
        result = SendV(small_dataset.u, 5).run(hdfs_with_small_dataset, "/data/input",
                                               profile=RuntimeProfile(cluster=small_cluster))
        per_round = sum(r.counters.get(CounterNames.SHUFFLE_BYTES) for r in result.rounds)
        assert result.counters.get(CounterNames.SHUFFLE_BYTES) == per_round

    def test_result_communication_matches_rounds(self, hdfs_with_small_dataset,
                                                 small_dataset, small_cluster):
        result = SendV(small_dataset.u, 5).run(hdfs_with_small_dataset, "/data/input",
                                               profile=RuntimeProfile(cluster=small_cluster))
        assert result.communication_bytes == pytest.approx(
            sum(r.communication_bytes for r in result.rounds)
        )

    def test_profile_is_the_only_runtime_argument(self, hdfs_with_small_dataset,
                                                  small_dataset, small_cluster):
        """The pre-profile spellings of run() fail loudly, and an algorithm
        that declares no plan cannot be built at all."""
        algorithm = SendV(small_dataset.u, 5)
        for positional in (small_cluster, RuntimeProfile(cluster=small_cluster)):
            with pytest.raises(TypeError):
                algorithm.run(hdfs_with_small_dataset, "/data/input", positional)
        for legacy in ("cluster", "cost_parameters", "seed", "executor", "data_plane",
                       "store", "store_name"):
            with pytest.raises(TypeError, match=legacy):
                algorithm.run(hdfs_with_small_dataset, "/data/input", **{legacy: None})

        class Unplanned(HistogramAlgorithm):
            name = "unplanned"

        with pytest.raises(TypeError, match="create_plan"):
            Unplanned(small_dataset.u, 5)


class TestAlgorithmResult:
    def test_sse_delegates_to_histogram(self, small_reference, small_dataset):
        histogram = WaveletHistogram.from_frequency_vector(small_reference, 5)
        result = AlgorithmResult(algorithm="x", histogram=histogram)
        assert result.sse(small_reference) == pytest.approx(histogram.sse(small_reference))
        assert result.num_rounds == 0
