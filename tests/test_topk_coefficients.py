"""Tests for top-k coefficient selection (repro.core.topk_coefficients)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topk_coefficients import (
    bottom_k_items,
    bottom_k_positions,
    top_k_coefficients,
    top_k_from_arrays,
    top_k_from_dense,
    top_k_items,
    top_k_positions,
)
from repro.errors import InvalidParameterError


class TestTopKCoefficients:
    def test_selects_largest_magnitudes(self):
        coefficients = {1: 10.0, 2: -50.0, 3: 0.5, 4: 20.0}
        assert top_k_coefficients(coefficients, 2) == {2: -50.0, 4: 20.0}

    def test_returns_all_when_fewer_than_k(self):
        coefficients = {1: 1.0, 2: -2.0}
        assert top_k_coefficients(coefficients, 10) == coefficients

    def test_zero_valued_coefficients_are_dropped(self):
        assert top_k_coefficients({1: 0.0, 2: 3.0}, 5) == {2: 3.0}

    def test_deterministic_tie_breaking_by_smaller_index(self):
        coefficients = {5: 2.0, 3: -2.0, 9: 2.0}
        assert set(top_k_coefficients(coefficients, 2)) == {3, 5}

    def test_rejects_non_positive_k(self):
        with pytest.raises(InvalidParameterError):
            top_k_coefficients({1: 1.0}, 0)

    @given(st.dictionaries(st.integers(min_value=1, max_value=1000),
                           st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                           max_size=50),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=50)
    def test_magnitudes_dominate_the_rest(self, coefficients, k):
        selected = top_k_coefficients(coefficients, k)
        if not selected:
            return
        smallest_selected = min(abs(value) for value in selected.values())
        for index, value in coefficients.items():
            if index not in selected and value != 0.0:
                assert abs(value) <= smallest_selected + 1e-12


class TestTopKFromDense:
    def test_indices_are_one_based(self):
        dense = np.array([0.0, 5.0, -7.0, 1.0])
        assert top_k_from_dense(dense, 2) == {3: -7.0, 2: 5.0}

    def test_matches_sparse_selection(self):
        rng = np.random.default_rng(2)
        dense = rng.normal(size=64)
        sparse = {i + 1: float(v) for i, v in enumerate(dense)}
        assert top_k_from_dense(dense, 7) == top_k_coefficients(sparse, 7)


class TestTopAndBottomItems:
    def test_top_k_items_ordered_descending(self):
        scores = {1: 5.0, 2: -3.0, 3: 10.0, 4: 0.0}
        assert top_k_items(scores, 2) == ((3, 10.0), (1, 5.0))

    def test_bottom_k_items_ordered_ascending(self):
        scores = {1: 5.0, 2: -3.0, 3: 10.0, 4: 0.0}
        assert bottom_k_items(scores, 2) == ((2, -3.0), (4, 0.0))

    def test_fewer_items_than_k(self):
        scores = {1: 1.0}
        assert top_k_items(scores, 3) == ((1, 1.0),)
        assert bottom_k_items(scores, 3) == ((1, 1.0),)

    def test_rejects_non_positive_k(self):
        with pytest.raises(InvalidParameterError):
            top_k_items({1: 1.0}, 0)
        with pytest.raises(InvalidParameterError):
            bottom_k_items({1: 1.0}, -1)

    @given(st.dictionaries(st.integers(1, 100), st.floats(-1e3, 1e3, allow_nan=False),
                           min_size=1, max_size=30),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=50)
    def test_top_and_bottom_are_extremes(self, scores, k):
        top = top_k_items(scores, k)
        bottom = bottom_k_items(scores, k)
        assert top[0][1] == max(scores.values())
        assert bottom[0][1] == min(scores.values())


class TestPartitionedSelection:
    """The partition-then-lexsort selection picks the full lexsort's head."""

    @given(st.integers(min_value=0, max_value=80),
           st.integers(min_value=1, max_value=100),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=200)
    def test_positions_equal_the_full_lexsort(self, n, k, distinct_scores, seed):
        # Few distinct scores make long runs of ties at the k-th score; n < k
        # covers inputs with fewer than k entries.
        rng = np.random.default_rng(seed)
        indices = rng.permutation(10 * (n + 1))[:n].astype(np.int64)
        values = rng.integers(-distinct_scores, distinct_scores + 1,
                              size=n).astype(np.float64)
        np.testing.assert_array_equal(top_k_positions(indices, values, k),
                                      np.lexsort((indices, -values))[:k])
        np.testing.assert_array_equal(bottom_k_positions(indices, values, k),
                                      np.lexsort((indices, values))[:k])

    def test_all_scores_tied(self):
        indices = np.array([9, 3, 7, 1, 5], dtype=np.int64)
        values = np.full(5, 2.0)
        np.testing.assert_array_equal(top_k_positions(indices, values, 2), [3, 1])
        np.testing.assert_array_equal(bottom_k_positions(indices, values, 3), [3, 1, 4])

    def test_top_k_from_arrays_is_the_full_magnitude_lexsort(self):
        rng = np.random.default_rng(4)
        indices = rng.permutation(500)[:200].astype(np.int64) + 1
        values = rng.integers(-5, 6, size=200).astype(np.float64)
        order = np.lexsort((indices, -np.abs(values)))[:17]
        expected = [(int(indices[i]), float(values[i])) for i in order if values[i]]
        assert list(top_k_from_arrays(indices, values, 17).items()) == expected
