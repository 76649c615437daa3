"""Tests of the benchmark's oracles, checks and span timeline; they run in seconds.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  The timed
workloads are not run here, only their tiny smoke versions.
"""

import itertools

import numpy as np
import pytest

from perfbench import oracles


def basis(u):
    """The orthonormal Haar basis as explicit rows, straight from its definition."""
    rows = [np.full(u, 1 / np.sqrt(u))]
    for level in range(u.bit_length() - 1):
        width = u >> level
        for position in range(1 << level):
            row = np.zeros(u)
            start = position * width
            row[start:start + width // 2] = -1 / np.sqrt(width)
            row[start + width // 2:start + width] = 1 / np.sqrt(width)
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("u", [1, 2, 16, 64])
def test_haar_is_the_basis_expansion(u):
    v = np.random.default_rng(u).integers(0, 50, u).astype(float)
    np.testing.assert_allclose(oracles.haar(v), basis(u) @ v, atol=1e-9)


def test_parseval_and_inverse():
    v = np.random.default_rng(1).integers(-20, 500, 1024).astype(float)
    w = oracles.haar(v)
    assert np.dot(w, w) == pytest.approx(np.dot(v, v), rel=1e-12)
    np.testing.assert_allclose(oracles.inverse_haar(w), v, atol=1e-9)


def test_range_sums_match_brute_force_on_every_range():
    u = 32
    rng = np.random.default_rng(2)
    w = oracles.haar(rng.integers(0, 30, u).astype(float))
    coefficients = oracles.top_k(w, 7)
    signal = oracles.inverse_haar(oracles.dense(coefficients, u))
    oracle = oracles.RangeOracle(coefficients, u)
    los, his = np.array([(lo, hi) for lo in range(1, u + 1)
                         for hi in range(lo, u + 1)]).T
    expected = np.array([signal[lo - 1:hi].sum() for lo, hi in zip(los, his)])
    np.testing.assert_allclose(oracle.sums(los, his), expected, atol=1e-9)
    assert oracles.answers_match(oracle.sums(los, his), expected)
    assert not oracles.answers_match(oracle.sums(los, his) + 1e-3, expected)


def test_optimal_sse_is_the_best_k_subset():
    u, k = 8, 2
    v = np.array([5, 0, 2, 9, 9, 1, 0, 3], dtype=float)
    w = oracles.haar(v)
    best = min(oracles.sse(v, {i + 1: w[i] for i in subset})
               for subset in itertools.combinations(range(u), k))
    assert oracles.optimal_sse(w, k) == pytest.approx(best)
    assert oracles.sse(v, oracles.top_k(w, k)) == pytest.approx(best)


def test_exact_check_accepts_ties_and_rejects_errors():
    # Keys 1 and 3 carry equal mass, so the finest details of pairs (1, 2)
    # and (3, 4) tie for the second-largest magnitude.
    v = np.array([4, 0, 4, 0, 1, 1, 1, 1], dtype=float)
    w = oracles.haar(v)
    assert abs(w[4]) == pytest.approx(abs(w[5])) == pytest.approx(sorted(np.abs(w))[-2])
    best = oracles.top_k(w, 2)
    assert oracles.exact_topk_error(w, 2, best) == ""
    other = 6 if 5 in best else 5
    swapped = {1: w[0], other: w[other - 1]}
    assert swapped != best
    assert oracles.exact_topk_error(w, 2, swapped) == ""
    wrong_value = dict(best)
    wrong_value[1] += 1e-3
    assert "transform gives" in oracles.exact_topk_error(w, 2, wrong_value)
    worse = {1: w[0], 4: w[3]}
    assert "SSE" in oracles.exact_topk_error(w, 2, worse)
    assert "coefficients" in oracles.exact_topk_error(w, 1, best)


def test_approximate_check_bounds_the_sse():
    v = np.random.default_rng(3).integers(0, 100, 64).astype(float)
    w = oracles.haar(v)
    best = oracles.top_k(w, 5)
    assert oracles.approximate_error(v, w, 5, best, 1.5, 5) == ("", pytest.approx(1.0))
    off = {i: value * 1.5 for i, value in best.items()}
    reason, ratio = oracles.approximate_error(v, w, 5, off, 1.5, 5)
    assert reason and ratio > 1.5
    assert oracles.approximate_error(v, w, 5, dict(list(best.items())[:4]), 1.5, 5)[0]
    assert oracles.approximate_error(v, w, 5, dict(list(best.items())[:4]), 1.5, 1)[0] == ""


def test_replay_nets_inserts_and_deletes():
    batches = [(np.array([1, 2, 2, 4]), np.array([1, 2, 4])), (np.array([4, 1]), np.array([1]))]
    nets = [net.copy() for net in oracles.replay(batches, 4)]
    np.testing.assert_array_equal(nets, [[0, 1, 0, 0], [0, 1, 0, 1]])


def test_self_time_subtracts_benchmark_spans_nested_under_program_spans():
    from perfbench.common import KIND, Timeline
    from repro.telemetry import SpanEvent

    def span(span_id, parent, kind, start, duration, name="x"):
        return SpanEvent(name=name, kind=kind, start_s=start, duration_s=duration,
                         span_id=span_id, parent_id=parent)

    timeline = Timeline([
        span(2, 1, "streaming", 1.0, 4.0),        # program span inside the operation
        span(3, 2, KIND, 1.5, 2.0, "store"),       # benchmark span inside that
        span(4, 3, KIND, 2.0, 1.0, "lookup"),      # ... and one inside the store call
        span(1, None, KIND, 0.0, 10.0, "fold"),
        span(5, None, "store", 11.0, 1.0, "load"),  # outside every benchmark span
    ])
    assert timeline.self_times("fold") == [8.0]
    assert timeline.self_times("store") == [1.0]
    assert timeline.durations("load", kind="store") == []


def test_smoke_runs_pass_and_catch_every_perturbation():
    from perfbench import run

    assert run.smoke() == 0
