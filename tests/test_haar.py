"""Tests for the Haar wavelet transforms (repro.core.haar)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import haar
from repro.core.haar import (
    basis_value,
    coefficient_level,
    coefficient_scales,
    coefficient_support,
    coefficients_for_key,
    energy,
    exact_haar_arrays,
    exact_haar_numerators,
    haar_transform,
    integer_count_arrays,
    inverse_haar_transform,
    sparse_haar_arrays,
    sparse_haar_transform,
    sparse_inverse_contribution,
    validate_domain,
    wavelet_basis_vector,
)
from repro.errors import InvalidDomainError, InvalidParameterError, KeyOutOfDomainError


# ------------------------------------------------------------------ validation
class TestValidateDomain:
    def test_accepts_powers_of_two(self):
        assert validate_domain(1) == 0
        assert validate_domain(2) == 1
        assert validate_domain(1024) == 10

    @pytest.mark.parametrize("u", [0, -4, 3, 6, 1000])
    def test_rejects_non_powers_of_two(self, u):
        with pytest.raises(InvalidDomainError):
            validate_domain(u)


# ----------------------------------------------------------------- dense paths
class TestHaarTransform:
    def test_paper_example_figure_1(self):
        """The signal from Figure 1 of the paper: unnormalised tree values match."""
        v = np.array([3, 5, 10, 8, 2, 2, 10, 14], dtype=float)
        w = haar_transform(v)
        # Normalised coefficients are the tree values times sqrt(u / 2^level).
        assert w[0] == pytest.approx(6.75 * math.sqrt(8))          # total average
        assert w[1] == pytest.approx(0.25 * math.sqrt(8))          # level-0 detail
        assert w[2] == pytest.approx(2.5 * math.sqrt(4))           # level-1 details
        assert w[3] == pytest.approx(5.0 * math.sqrt(4))
        assert w[4] == pytest.approx(1.0 * math.sqrt(2))           # level-2 details
        assert w[5] == pytest.approx(-1.0 * math.sqrt(2))
        assert w[6] == pytest.approx(0.0)
        assert w[7] == pytest.approx(2.0 * math.sqrt(2))

    def test_roundtrip(self):
        v = np.array([3, 5, 10, 8, 2, 2, 10, 14], dtype=float)
        assert np.allclose(inverse_haar_transform(haar_transform(v)), v)

    def test_energy_preservation(self):
        v = np.arange(16, dtype=float)
        w = haar_transform(v)
        assert np.dot(v, v) == pytest.approx(np.dot(w, w))

    def test_single_element_domain(self):
        v = np.array([5.0])
        w = haar_transform(v)
        assert w[0] == pytest.approx(5.0)
        assert inverse_haar_transform(w)[0] == pytest.approx(5.0)

    def test_constant_signal_has_single_nonzero_coefficient(self):
        v = np.full(32, 7.0)
        w = haar_transform(v)
        assert w[0] == pytest.approx(7.0 * 32 / math.sqrt(32))
        assert np.allclose(w[1:], 0.0)

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(InvalidDomainError):
            haar_transform(np.ones(6))

    def test_matches_basis_vector_dot_products(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 20, size=16).astype(float)
        w = haar_transform(v)
        for index in range(1, 17):
            assert w[index - 1] == pytest.approx(float(np.dot(v, wavelet_basis_vector(index, 16))))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        assert np.allclose(haar_transform(a + 2 * b), haar_transform(a) + 2 * haar_transform(b))


class TestInverseHaarTransform:
    def test_unit_coefficient_reconstructs_basis_vector(self):
        u = 16
        for index in (1, 2, 5, 16):
            w = np.zeros(u)
            w[index - 1] = 1.0
            assert np.allclose(inverse_haar_transform(w), wavelet_basis_vector(index, u))

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidDomainError):
            inverse_haar_transform(np.ones(12))


# -------------------------------------------------------------- property tests
class TestHaarProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_roundtrip_random_vectors(self, values):
        v = np.array(values)
        assert np.allclose(inverse_haar_transform(haar_transform(v)), v, atol=1e-6)

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
                    min_size=16, max_size=16))
    @settings(max_examples=50)
    def test_energy_preserved_random_vectors(self, values):
        v = np.array(values)
        w = haar_transform(v)
        assert float(np.dot(v, v)) == pytest.approx(float(np.dot(w, w)), rel=1e-9, abs=1e-6)

    @given(st.dictionaries(st.integers(min_value=1, max_value=64),
                           st.integers(min_value=1, max_value=1000),
                           min_size=0, max_size=30))
    @settings(max_examples=50)
    def test_sparse_matches_dense(self, counts):
        u = 64
        dense = np.zeros(u)
        for key, count in counts.items():
            dense[key - 1] = count
        expected = haar_transform(dense)
        sparse = sparse_haar_transform(counts, u)
        for index in range(1, u + 1):
            assert sparse.get(index, 0.0) == pytest.approx(expected[index - 1], abs=1e-9)


# --------------------------------------------------------------- sparse paths
class TestSparseHaarTransform:
    def test_empty_input(self):
        assert sparse_haar_transform({}, 64) == {}

    def test_ignores_zero_counts(self):
        assert sparse_haar_transform({5: 0}, 64) == {}

    def test_single_key_touches_log_u_plus_one_coefficients(self):
        u = 64
        result = sparse_haar_transform({17: 3.0}, u)
        assert len(result) == int(math.log2(u)) + 1

    def test_rejects_out_of_domain_key(self):
        with pytest.raises(KeyOutOfDomainError):
            sparse_haar_transform({65: 1.0}, 64)

    def test_sparse_inverse_contribution_matches_reconstruction(self):
        u = 32
        counts = {1: 4.0, 7: 2.0, 30: 9.0}
        coefficients = sparse_haar_transform(counts, u)
        dense = np.zeros(u)
        for index, value in coefficients.items():
            dense[index - 1] = value
        reconstructed = inverse_haar_transform(dense)
        for key in range(1, u + 1):
            assert sparse_inverse_contribution(coefficients, key, u) == pytest.approx(
                reconstructed[key - 1], abs=1e-9
            )


def _python_numerators(keys, counts, u):
    """Each coefficient's numerator in Python integers, key by key.

    ``w_1``'s numerator is the total count; a detail's is the count of its
    support's right half minus that of its left half.
    """
    numerators = {}
    for key, count in zip(keys, counts):
        if count == 0:
            continue
        for index in coefficients_for_key(key, u):
            lo, hi = coefficient_support(index, u)
            sign = 1 if index == 1 or key > (lo + hi) // 2 else -1
            numerators[index] = numerators.get(index, 0) + sign * count
    return numerators


class TestExactHaar:
    """The integer kernel against Python-int arithmetic and the dense transform."""

    @pytest.mark.parametrize("u", [1, 2, 4, 64, 2 ** 16, 2 ** 17])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_numerators_are_python_integer_arithmetic(self, u, seed):
        rng = np.random.default_rng((u, seed))
        size = int(rng.integers(1, min(u, 300) + 1))
        keys = np.sort(rng.choice(u, size=size, replace=False) + 1)
        # Negative counts are stream deltas; a few zeros are dropped.
        counts = rng.integers(-1000, 1001, size=size)
        indices, numerators = exact_haar_numerators(keys, counts, u)
        expected = _python_numerators(keys.tolist(), counts.tolist(), u)
        assert indices.tolist() == sorted(expected)
        assert numerators.tolist() == [expected[index] for index in sorted(expected)]

        _, values = exact_haar_arrays(keys, counts, u)
        widths = [hi - lo + 1 for lo, hi in (coefficient_support(i, u)
                                             for i in indices.tolist())]
        assert values.tolist() == [numerator / math.sqrt(width) for numerator, width
                                   in zip(numerators.tolist(), widths)]
        assert coefficient_scales(indices, u).tolist() == [math.sqrt(w) for w in widths]

        dense = np.zeros(u)
        dense[keys - 1] = counts
        full = np.zeros(u)
        full[indices - 1] = values
        np.testing.assert_allclose(full, haar_transform(dense), rtol=0, atol=1e-9)

    def test_one_key_touches_its_path(self):
        # Key 17 is offset 0b010000: right half only at level 1.
        indices, numerators = exact_haar_numerators([17], [3], 64)
        assert indices.tolist() == list(coefficients_for_key(17, 64))
        assert numerators.tolist() == [3, -3, 3, -3, -3, -3, -3]

    def test_empty_split(self):
        for keys, counts in (([], []), ([5, 9], [0, 0])):
            indices, values = exact_haar_arrays(
                np.asarray(keys, dtype=np.int64), np.asarray(counts, dtype=np.int64), 64)
            assert indices.size == 0 and values.size == 0
            assert indices.dtype == np.int64 and values.dtype == np.float64

    def test_exact_zeros_stay_on_the_support(self):
        # Keys 1 and 2 cancel in every coefficient above the finest level.
        indices, numerators = exact_haar_numerators([1, 2], [5, 5], 8)
        assert indices.tolist() == [1, 2, 3, 5]
        assert numerators.tolist() == [10, -10, -10, 0]

    def test_rejects_bad_input(self):
        with pytest.raises(KeyOutOfDomainError):
            exact_haar_numerators([3, 65], [1, 1], 64)
        with pytest.raises(InvalidParameterError):
            exact_haar_numerators([9, 3], [1, 1], 64)
        with pytest.raises(InvalidParameterError):
            exact_haar_numerators([3, 3], [1, 1], 64)
        with pytest.raises(InvalidParameterError):
            exact_haar_numerators([3], [1.5], 64)
        with pytest.raises(InvalidParameterError):
            integer_count_arrays({3: 1.5})

    def test_integer_count_arrays_sort_the_mapping(self):
        keys, counts = integer_count_arrays({9: 2.0, 1: -3.0, 4: 7.0})
        assert keys.tolist() == [1, 4, 9] and counts.tolist() == [-3, 7, 2]
        assert counts.dtype == np.int64


class TestRadixGrouping:
    """The 16-bit radix sort path agrees with the int64 stable sort at its edge."""

    @pytest.mark.parametrize("u", [2 ** 16, 2 ** 17])
    def test_grouping_order_equals_the_int64_stable_order(self, u):
        rng = np.random.default_rng(u)
        flat = np.concatenate(([u, 1, u, 2 ** 16, 1], rng.integers(1, u + 1, size=20_000)))
        np.testing.assert_array_equal(haar._grouping_order(flat, u),
                                      np.argsort(flat, kind="stable"))

    @pytest.mark.parametrize("u", [2 ** 16, 2 ** 17])
    def test_transform_is_bit_identical_to_the_int64_sort(self, u, monkeypatch):
        rng = np.random.default_rng(u + 1)
        keys = np.concatenate(([1, u // 2, u - 1, u], rng.integers(1, u + 1, size=2_000)))
        counts = {int(key): float(rng.integers(1, 50)) for key in keys}
        indices, values = sparse_haar_arrays(counts, u)
        assert indices[-1] == u  # the last coefficient, index 65536 at u = 2**16
        monkeypatch.setattr(haar, "_grouping_order",
                            lambda flat, _u: np.argsort(flat, kind="stable"))
        reference_indices, reference_values = sparse_haar_arrays(counts, u)
        np.testing.assert_array_equal(indices, reference_indices)
        assert values.tobytes() == reference_values.tobytes()


# ------------------------------------------------------------- basis structure
class TestBasisStructure:
    def test_basis_vectors_are_orthonormal(self):
        u = 16
        basis = np.array([wavelet_basis_vector(i, u) for i in range(1, u + 1)])
        gram = basis @ basis.T
        assert np.allclose(gram, np.eye(u), atol=1e-9)

    def test_basis_value_matches_materialised_vector(self):
        u = 32
        for index in (1, 2, 3, 10, 32):
            vector = wavelet_basis_vector(index, u)
            for key in range(1, u + 1):
                assert basis_value(index, key, u) == pytest.approx(vector[key - 1])

    def test_coefficient_level(self):
        u = 16
        assert coefficient_level(1, u) == 0
        assert coefficient_level(2, u) == 0
        assert coefficient_level(3, u) == 1
        assert coefficient_level(5, u) == 2
        assert coefficient_level(9, u) == 3

    def test_coefficient_support_partitions_domain_per_level(self):
        u = 16
        for level in range(1, 4):
            supports = [
                coefficient_support(2 ** level + offset + 1, u) for offset in range(2 ** level)
            ]
            covered = []
            for lo, hi in supports:
                covered.extend(range(lo, hi + 1))
            assert sorted(covered) == list(range(1, u + 1))

    def test_coefficients_for_key_is_the_root_to_leaf_path(self):
        u = 16
        path = coefficients_for_key(5, u)
        assert path[0] == 1
        assert len(path) == int(math.log2(u)) + 1
        for index in path[1:]:
            lo, hi = coefficient_support(index, u)
            assert lo <= 5 <= hi

    def test_out_of_range_queries_raise(self):
        with pytest.raises(KeyOutOfDomainError):
            coefficient_support(0, 16)
        with pytest.raises(KeyOutOfDomainError):
            coefficient_level(17, 16)
        with pytest.raises(KeyOutOfDomainError):
            coefficients_for_key(0, 16)
        with pytest.raises(KeyOutOfDomainError):
            basis_value(1, 17, 16)
        with pytest.raises(KeyOutOfDomainError):
            wavelet_basis_vector(17, 16)


class TestEnergyHelper:
    def test_energy_of_list(self):
        assert energy([3.0, 4.0]) == pytest.approx(25.0)

    def test_energy_of_array(self):
        assert energy(np.array([1.0, 2.0, 2.0])) == pytest.approx(9.0)
