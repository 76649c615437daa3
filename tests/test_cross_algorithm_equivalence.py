"""Cross-algorithm equivalence: independent paths to the same top-k coefficients.

The exact algorithms (Send-V, Send-Coef, H-WTopk) and the sketch algorithm at
negligible sketch error must all agree with the direct centralized computation
— ``haar_transform`` of the exact frequency vector followed by top-k selection
— on ``tiny_dataset``.  Each algorithm reaches the answer through a different
code path (dense transform at the reducer, sparse per-split transforms, GCS
sketch estimation), so agreement here pins the whole pipeline to the paper's
Section 2.1 definition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import HWTopk, SendCoef, SendSketch, SendV
from repro.core.haar import haar_transform
from repro.core.topk_coefficients import top_k_from_dense
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import HDFS
from repro.service import RuntimeProfile

K = 8
SEED = 11


@pytest.fixture(scope="module")
def direct_top_k(tiny_dataset):
    """The centralized reference: dense transform of the exact frequency vector."""
    dense = tiny_dataset.frequency_vector().to_dense()
    return top_k_from_dense(haar_transform(dense), K)


def _run(algorithm, tiny_dataset):
    cluster = paper_cluster(split_size_bytes=max(4, tiny_dataset.size_bytes // 4))
    hdfs = HDFS(datanodes=["n0", "n1"])
    tiny_dataset.to_hdfs(hdfs, "/data/input")
    return algorithm.run(hdfs, "/data/input",
                         profile=RuntimeProfile(cluster=cluster, seed=SEED))


def _assert_matches_direct(coefficients, direct, atol=1e-9):
    assert set(coefficients) == set(direct)
    for index, value in direct.items():
        assert coefficients[index] == pytest.approx(value, abs=atol)


def test_send_v_matches_direct_computation(tiny_dataset, direct_top_k):
    result = _run(SendV(tiny_dataset.u, K), tiny_dataset)
    _assert_matches_direct(result.histogram.coefficients, direct_top_k)


def test_send_coef_matches_direct_computation(tiny_dataset, direct_top_k):
    result = _run(SendCoef(tiny_dataset.u, K), tiny_dataset)
    _assert_matches_direct(result.histogram.coefficients, direct_top_k)


def test_hwtopk_matches_direct_computation(tiny_dataset, direct_top_k):
    result = _run(HWTopk(tiny_dataset.u, K), tiny_dataset)
    _assert_matches_direct(result.histogram.coefficients, direct_top_k)


def test_send_sketch_at_negligible_error_matches_direct(tiny_dataset, direct_top_k):
    # A sketch budget far above the domain's energy requirements drives the GCS
    # estimation error to (near) zero, so the sketch path must find the same
    # top-k coefficients as the exact computation.
    result = _run(
        SendSketch(tiny_dataset.u, K, bytes_per_level=64 * 1024), tiny_dataset
    )
    sketch = result.histogram.coefficients
    assert set(sketch) == set(direct_top_k)
    for index, value in direct_top_k.items():
        assert sketch[index] == pytest.approx(value, rel=1e-6, abs=1e-6)


def test_exact_algorithms_agree_pairwise(tiny_dataset):
    send_v = _run(SendV(tiny_dataset.u, K), tiny_dataset).histogram.coefficients
    send_coef = _run(SendCoef(tiny_dataset.u, K), tiny_dataset).histogram.coefficients
    assert set(send_v) == set(send_coef)
    for index in send_v:
        assert send_v[index] == pytest.approx(send_coef[index], abs=1e-9)


def test_direct_energy_dominates(tiny_dataset, direct_top_k):
    """Sanity: the selected k coefficients capture the largest magnitudes."""
    dense = haar_transform(tiny_dataset.frequency_vector().to_dense())
    magnitudes = np.sort(np.abs(dense))[::-1]
    selected = sorted((abs(v) for v in direct_top_k.values()), reverse=True)
    np.testing.assert_allclose(selected, magnitudes[:K], rtol=1e-12)
