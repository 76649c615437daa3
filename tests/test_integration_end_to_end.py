"""End-to-end integration tests crossing all subsystems.

These tests run every algorithm over the same dataset through the full stack
(data generator → HDFS → MapReduce runtime → cost model → histogram) and check
the paper's headline relationships between them.
"""

from __future__ import annotations

import pytest

from repro import (
    HDFS,
    HWTopk,
    ImprovedSampling,
    RuntimeProfile,
    SendCoef,
    SendSketch,
    SendV,
    TwoLevelSampling,
    WaveletHistogram,
    paper_cluster,
)
from repro.algorithms import BasicSampling
from repro.data.generators import ZipfDatasetGenerator

K = 20
EPSILON = 0.02


@pytest.fixture(scope="module")
def stack():
    dataset = ZipfDatasetGenerator(u=2048, alpha=1.1, seed=29).generate(80_000)
    hdfs = HDFS()
    dataset.to_hdfs(hdfs, "/data/input")
    cluster = paper_cluster(split_size_bytes=dataset.size_bytes // 32)
    reference = dataset.frequency_vector()
    ideal = WaveletHistogram.from_frequency_vector(reference, K)
    algorithms = {
        "Send-V": SendV(dataset.u, K),
        "Send-Coef": SendCoef(dataset.u, K),
        "H-WTopk": HWTopk(dataset.u, K),
        "Send-Sketch": SendSketch(dataset.u, K, bytes_per_level=16 * 1024),
        "Basic-S": BasicSampling(dataset.u, K, epsilon=EPSILON),
        "Improved-S": ImprovedSampling(dataset.u, K, epsilon=EPSILON),
        "TwoLevel-S": TwoLevelSampling(dataset.u, K, epsilon=EPSILON),
    }
    profile = RuntimeProfile(cluster=cluster, seed=1)
    results = {name: algorithm.run(hdfs, "/data/input", profile=profile)
               for name, algorithm in algorithms.items()}
    return dataset, reference, ideal, results


class TestExactness:
    def test_all_exact_methods_agree(self, stack):
        _, reference, ideal, results = stack
        ideal_sse = ideal.sse(reference)
        for name in ("Send-V", "Send-Coef", "H-WTopk"):
            assert results[name].histogram.sse(reference) == pytest.approx(ideal_sse, rel=1e-9)

    def test_exact_methods_return_k_coefficients(self, stack):
        _, _, _, results = stack
        for name in ("Send-V", "Send-Coef", "H-WTopk"):
            assert len(results[name].histogram) == K


class TestApproximationQuality:
    def test_every_approximation_is_reasonable(self, stack):
        _, reference, ideal, results = stack
        ideal_sse = ideal.sse(reference)
        total_energy = reference.energy()
        for name in ("Send-Sketch", "Basic-S", "Improved-S", "TwoLevel-S"):
            sse = results[name].histogram.sse(reference)
            assert ideal_sse * 0.999 <= sse  # cannot beat the optimum
            assert sse < total_energy  # better than the empty histogram

    def test_samplers_are_close_to_ideal(self, stack):
        _, reference, ideal, results = stack
        ideal_sse = ideal.sse(reference)
        for name in ("Basic-S", "Improved-S", "TwoLevel-S"):
            assert results[name].histogram.sse(reference) <= 2.0 * ideal_sse


class TestCostRelationships:
    def test_communication_ordering(self, stack):
        """The qualitative ordering of Figure 5(a)/17(a) at the scaled workload."""
        _, _, _, results = stack
        comm = {name: result.communication_bytes for name, result in results.items()}
        assert comm["H-WTopk"] < comm["Send-V"]
        assert comm["TwoLevel-S"] < comm["H-WTopk"]
        assert comm["TwoLevel-S"] < comm["Basic-S"]
        assert comm["Send-Coef"] > comm["Send-V"]

    def test_sampling_time_is_lowest(self, stack):
        _, _, _, results = stack
        times = {name: result.simulated_time_s for name, result in results.items()}
        assert times["TwoLevel-S"] < times["Send-V"]
        assert times["TwoLevel-S"] < times["Send-Sketch"]
        assert times["Send-Sketch"] > times["Send-V"]

    def test_round_counts(self, stack):
        _, _, _, results = stack
        expected_rounds = {"Send-V": 1, "Send-Coef": 1, "H-WTopk": 3, "Send-Sketch": 1,
                           "Basic-S": 1, "Improved-S": 1, "TwoLevel-S": 1}
        for name, rounds in expected_rounds.items():
            assert results[name].num_rounds == rounds

    def test_counters_are_merged_across_rounds(self, stack):
        _, _, _, results = stack
        hwtopk = results["H-WTopk"]
        from repro.mapreduce.counters import CounterNames

        per_round = sum(round_result.counters.get(CounterNames.SHUFFLE_BYTES)
                        for round_result in hwtopk.rounds)
        assert hwtopk.counters.get(CounterNames.SHUFFLE_BYTES) == pytest.approx(per_round)

    def test_histograms_support_queries(self, stack):
        dataset, reference, _, results = stack
        histogram = results["TwoLevel-S"].histogram
        exact_total = reference.total_count
        estimate = histogram.range_sum(1, dataset.u)
        assert estimate == pytest.approx(exact_total, rel=0.2)
