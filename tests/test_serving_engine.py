"""Tests for the vectorized batch query engine (repro.serving.engine)."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.haar import coefficient_support, inverse_haar_transform
from repro.core.histogram import WaveletHistogram
from repro.errors import InvalidParameterError, KeyOutOfDomainError
from repro.serving.engine import BatchQueryEngine
from repro.serving.workload import WorkloadGenerator

# Every float64 is an integer multiple of 2**-1074, so prefix sums of the
# signal scaled by 2**1074 are exact Python integers.
_EXACT_SCALE = 2 ** 1074


def _histogram(u: int = 256, k: int = 24, seed: int = 7) -> WaveletHistogram:
    rng = np.random.default_rng(seed)
    dense = rng.poisson(25.0, u).astype(float) * (1.0 + rng.random(u))
    return WaveletHistogram.from_dense(dense, k)


def _scalar_range_sums(histogram: WaveletHistogram, los, his) -> np.ndarray:
    return np.array(
        [histogram.range_sum_scalar(int(lo), int(hi)) for lo, hi in zip(los, his)]
    )


class _DenseOracle:
    """Ground truth built apart from the engine: the dense inverse Haar
    transform of the kept coefficients, then exact prefix sums of it."""

    def __init__(self, u: int, coefficients) -> None:
        dense = np.zeros(u)
        for index, value in coefficients.items():
            dense[index - 1] = value
        self.signal = inverse_haar_transform(dense)
        scaled = []
        for value in self.signal.tolist():
            numerator, denominator = value.as_integer_ratio()
            scaled.append(numerator * (_EXACT_SCALE // denominator))
        self._prefix = [0, *itertools.accumulate(scaled)]

    def range_sums(self, los, his) -> np.ndarray:
        # Python's int / int is correctly rounded, so each answer is the
        # exact range sum of the float64 signal, rounded once.
        return np.array([(self._prefix[int(hi)] - self._prefix[int(lo) - 1]) / _EXACT_SCALE
                         for lo, hi in zip(los, his)])


def _zipf_histogram(k: int, u: int = 2 ** 12, seed: int = 1) -> WaveletHistogram:
    """Zipf(1.1) key counts with fractional weights, so sums round."""
    rng = np.random.default_rng(seed)
    keys = np.minimum(rng.zipf(1.1, 200_000), u)
    counts = np.bincount(keys, minlength=u + 1)[1:].astype(float)
    return WaveletHistogram.from_dense(counts[rng.permutation(u)] * (1.0 + rng.random(u)), k)


def _breakpoints(u: int, coefficients) -> set:
    """Keys where the reconstructed signal may change value."""
    points = {1}
    for index in coefficients:
        if index >= 2:
            lo, hi = coefficient_support(index, u)
            points.update((lo, lo + (hi - lo + 1) // 2, hi + 1))
    return {point for point in points if point <= u}


class TestAgreementWithScalarLoop:
    def test_matches_scalar_loop_on_workload(self):
        histogram = _histogram()
        engine = BatchQueryEngine.from_histogram(histogram)
        workload = WorkloadGenerator(histogram.u, seed=11).generate(3_000, "mixed")
        batch = engine.range_sum_many(workload.los, workload.his)
        np.testing.assert_allclose(
            batch, _scalar_range_sums(histogram, workload.los, workload.his),
            rtol=0.0, atol=1e-9,
        )

    def test_exhaustive_on_tiny_domain(self):
        histogram = _histogram(u=16, k=16)
        engine = BatchQueryEngine.from_histogram(histogram)
        los, his = zip(*[(lo, hi) for lo in range(1, 17) for hi in range(lo, 17)])
        np.testing.assert_allclose(
            engine.range_sum_many(los, his),
            _scalar_range_sums(histogram, los, his),
            rtol=0.0, atol=1e-9,
        )

    @given(
        log_u=st.integers(min_value=0, max_value=9),
        k=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_agreement_property(self, log_u, k, seed):
        u = 2 ** log_u
        rng = np.random.default_rng(seed)
        dense = rng.normal(0.0, 50.0, u)
        histogram = WaveletHistogram.from_dense(dense, k)
        engine = BatchQueryEngine.from_histogram(histogram)
        a = rng.integers(1, u + 1, size=64)
        b = rng.integers(1, u + 1, size=64)
        los, his = np.minimum(a, b), np.maximum(a, b)
        np.testing.assert_allclose(
            engine.range_sum_many(los, his),
            _scalar_range_sums(histogram, los, his),
            rtol=0.0, atol=1e-9,
        )

    def test_point_estimates_match_scalar(self):
        histogram = _histogram()
        engine = BatchQueryEngine.from_histogram(histogram)
        keys = np.arange(1, histogram.u + 1)
        scalar = np.array([histogram.estimate(int(key)) for key in keys])
        np.testing.assert_allclose(engine.estimate_many(keys), scalar,
                                   rtol=0.0, atol=1e-9)

    def test_histogram_batch_api_delegates_to_engine(self):
        histogram = _histogram()
        los = np.array([1, 5, 17], dtype=np.int64)
        his = np.array([4, 200, 256], dtype=np.int64)
        expected = _scalar_range_sums(histogram, los, his)
        np.testing.assert_allclose(histogram.range_sum_many(los, his), expected,
                                   rtol=0.0, atol=1e-9)
        # The scalar-looking legacy API now routes through the same engine.
        for lo, hi, value in zip(los, his, expected):
            assert histogram.range_sum(int(lo), int(hi)) == pytest.approx(value, abs=1e-9)

    def test_queried_histogram_stays_picklable(self):
        import pickle

        histogram = _histogram()
        before = histogram.range_sum(3, 77)  # caches an engine (which holds a lock)
        clone = pickle.loads(pickle.dumps(histogram))
        assert clone.coefficients == histogram.coefficients
        assert clone.range_sum(3, 77) == before

    def test_full_budget_synopsis_matches_scalar_loop(self):
        # A full-budget histogram (k = u) has a piece per key.
        u = 2 ** 12
        rng = np.random.default_rng(6)
        histogram = WaveletHistogram.from_dense(rng.normal(0, 10, u), u)
        engine = BatchQueryEngine.from_histogram(histogram)
        workload = WorkloadGenerator(u, seed=7).generate(2_000, "uniform")
        np.testing.assert_allclose(
            engine.range_sum_many(workload.los, workload.his),
            _scalar_range_sums(histogram, workload.los, workload.his),
            rtol=0.0, atol=1e-9,
        )


class TestEdgeCasesAndValidation:
    def test_empty_histogram_answers_zero(self):
        engine = BatchQueryEngine(64, {})
        assert np.array_equal(engine.range_sum_many([1, 3], [64, 9]), [0.0, 0.0])
        assert engine.estimated_total() == 0.0

    def test_domain_of_one(self):
        engine = BatchQueryEngine(1, {1: 4.0})
        np.testing.assert_allclose(engine.range_sum_many([1], [1]), [4.0])
        np.testing.assert_allclose(engine.estimate_many([1]), [4.0])

    def test_empty_batch(self):
        engine = BatchQueryEngine.from_histogram(_histogram())
        assert engine.range_sum_many([], []).shape == (0,)
        assert engine.estimate_many([]).shape == (0,)

    def test_rejects_inverted_and_out_of_domain_ranges(self):
        engine = BatchQueryEngine.from_histogram(_histogram(u=64))
        with pytest.raises(InvalidParameterError):
            engine.range_sum_many([5], [4])
        with pytest.raises(KeyOutOfDomainError):
            engine.range_sum_many([0], [4])
        with pytest.raises(KeyOutOfDomainError):
            engine.range_sum_many([1], [65])
        with pytest.raises(KeyOutOfDomainError):
            engine.estimate_many([0])
        with pytest.raises(InvalidParameterError):
            engine.range_sum_many([1, 2], [3])

    def test_coefficient_arrays_are_read_only(self):
        engine = BatchQueryEngine.from_histogram(_histogram())
        indices, values = engine.coefficient_arrays()
        assert not indices.flags.writeable and not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_rejects_bad_construction(self):
        with pytest.raises(KeyOutOfDomainError):
            BatchQueryEngine(16, {17: 1.0})

    def test_no_block_size_option(self):
        """Evaluation needs O(q) memory, so nothing is blocked or tunable."""
        histogram = _histogram(u=16, k=4)
        with pytest.raises(TypeError):
            BatchQueryEngine(16, {1: 1.0}, block_size=8)
        with pytest.raises(TypeError):
            BatchQueryEngine.from_histogram(histogram, block_size=8)
        with pytest.raises(TypeError):
            BatchQueryEngine.from_arrays(16, [1], [1.0], block_size=8)

    def test_selectivity_normalises_by_estimated_total(self):
        histogram = _histogram()
        engine = BatchQueryEngine.from_histogram(histogram)
        full = engine.selectivity_many([1], [histogram.u])
        assert full[0] == pytest.approx(1.0, abs=1e-9)
        halves = engine.selectivity_many([1, histogram.u // 2 + 1],
                                         [histogram.u // 2, histogram.u])
        assert float(halves.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_selectivity_with_zero_total_is_zero(self):
        engine = BatchQueryEngine(32, {})
        assert np.array_equal(engine.selectivity_many([1], [32]), [0.0])


class TestGroundTruth:
    """The piecewise index against a dense oracle it shares no code with."""

    @pytest.mark.parametrize("k", [30, 300, 3_000])
    def test_matches_dense_oracle_on_every_mix(self, k):
        histogram = _zipf_histogram(k)
        engine = BatchQueryEngine.from_histogram(histogram)
        oracle = _DenseOracle(histogram.u, histogram.coefficients)
        for mix in ("mixed", "zipfian", "uniform"):
            workload = WorkloadGenerator(histogram.u, seed=3).generate(5_000, mix)
            np.testing.assert_allclose(
                engine.range_sum_many(workload.los, workload.his),
                oracle.range_sums(workload.los, workload.his),
                rtol=0.0, atol=1e-9, err_msg=f"k={k}, mix={mix}",
            )
        np.testing.assert_allclose(
            engine.estimate_many(np.arange(1, histogram.u + 1)), oracle.signal,
            rtol=0.0, atol=1e-9)

    def test_matches_scalar_loop_at_large_k(self):
        histogram = _zipf_histogram(3_000)
        engine = BatchQueryEngine.from_histogram(histogram)
        workload = WorkloadGenerator(histogram.u, seed=4).generate(200, "mixed")
        np.testing.assert_allclose(
            engine.range_sum_many(workload.los, workload.his),
            _scalar_range_sums(histogram, workload.los, workload.his),
            rtol=0.0, atol=1e-9,
        )

    @given(
        log_u=st.integers(min_value=0, max_value=10),
        k=st.integers(min_value=0, max_value=48),
        keep_average=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(log_u=6, k=0, keep_average=False, seed=0)  # the empty synopsis
    @example(log_u=6, k=0, keep_average=True, seed=0)  # w_1 alone
    @example(log_u=10, k=0, keep_average=True, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_random_synopses_match_dense_oracle(self, log_u, k, keep_average, seed):
        u = 2 ** log_u
        rng = np.random.default_rng(seed)
        details = rng.permutation(np.arange(2, u + 1))[:k]
        indices = ([1] if keep_average else []) + details.tolist()
        coefficients = {int(i): float(v) for i, v in
                        zip(indices, rng.normal(0.0, 100.0, len(indices)))}
        engine = BatchQueryEngine(u, coefficients)
        oracle = _DenseOracle(u, coefficients)
        if u <= 64:  # every range
            los, his = map(np.array, zip(*[(lo, hi) for lo in range(1, u + 1)
                                           for hi in range(lo, u + 1)]))
        else:
            a = rng.integers(1, u + 1, size=256)
            b = rng.integers(1, u + 1, size=256)
            los, his = np.minimum(a, b), np.maximum(a, b)
        np.testing.assert_allclose(engine.range_sum_many(los, his),
                                   oracle.range_sums(los, his),
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(engine.estimate_many(np.arange(1, u + 1)),
                                   oracle.signal, rtol=0.0, atol=1e-9)

    def test_bounds_at_and_around_piece_starts(self):
        histogram = _histogram(u=1024, k=24)
        engine = BatchQueryEngine.from_histogram(histogram)
        oracle = _DenseOracle(histogram.u, histogram.coefficients)
        starts = _breakpoints(histogram.u, histogram.coefficients)
        bounds = sorted({1, histogram.u} | starts
                        | {start - 1 for start in starts if start > 1})
        los, his = map(np.array, zip(*[(lo, hi) for lo in bounds for hi in bounds
                                       if lo <= hi]))
        assert np.any(los == his)
        np.testing.assert_allclose(engine.range_sum_many(los, his),
                                   oracle.range_sums(los, his),
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(engine.estimate_many(bounds),
                                   oracle.signal[np.array(bounds) - 1],
                                   rtol=0.0, atol=1e-9)

    def test_large_batch_memory_is_linear_in_queries(self):
        engine = BatchQueryEngine.from_histogram(_zipf_histogram(3_000))
        workload = WorkloadGenerator(engine.u, seed=5).generate(200_000, "mixed")
        engine.range_sum_many(workload.los[:8], workload.his[:8])
        tracemalloc.start()
        try:
            engine.range_sum_many(workload.los, workload.his)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, f"peak {peak / 2**20:.1f} MB"


class TestWorkloadGenerator:
    def test_bounds_and_determinism(self):
        for mix in ("uniform", "zipfian", "range_skewed", "mixed"):
            workload = WorkloadGenerator(512, seed=9).generate(1_000, mix)
            again = WorkloadGenerator(512, seed=9).generate(1_000, mix)
            assert len(workload) == 1_000 and workload.mix == mix
            assert workload.los.min() >= 1 and workload.his.max() <= 512
            assert np.all(workload.los <= workload.his)
            assert workload == again
        assert (WorkloadGenerator(512, seed=9).generate(100, "uniform")
                != WorkloadGenerator(512, seed=10).generate(100, "uniform"))

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(512, seed=1).generate(500, "uniform")
        b = WorkloadGenerator(512, seed=2).generate(500, "uniform")
        assert not np.array_equal(a.los, b.los)

    def test_zipfian_mix_repeats_ranges(self):
        workload = WorkloadGenerator(1 << 14, seed=3).generate(4_000, "zipfian")
        unique = np.unique(np.stack([workload.los, workload.his], axis=1), axis=0)
        assert unique.shape[0] < len(workload)  # the hot set repeats

    def test_rejects_bad_parameters(self):
        generator = WorkloadGenerator(64)
        with pytest.raises(InvalidParameterError):
            generator.generate(0, "uniform")
        with pytest.raises(InvalidParameterError):
            generator.generate(10, "nope")
        with pytest.raises(InvalidParameterError):
            WorkloadGenerator(64, alpha=0.0)

    def test_tiny_domain(self):
        workload = WorkloadGenerator(1, seed=5).generate(50, "mixed")
        assert np.all(workload.los == 1) and np.all(workload.his == 1)
