"""Core wavelet-histogram machinery (the paper's primary data structure).

This subpackage contains everything that is independent of the MapReduce
substrate:

* :mod:`repro.core.haar` — Haar wavelet transforms (dense, sparse, inverse)
  and wavelet basis vectors.
* :mod:`repro.core.topk_coefficients` — selection of the ``k`` coefficients of
  largest magnitude.
* :mod:`repro.core.histogram` — the :class:`~repro.core.histogram.WaveletHistogram`
  synopsis: reconstruction, point/range estimation and error metrics.
* :mod:`repro.core.multidim` — standard multi-dimensional Haar transforms.
* :mod:`repro.core.frequency` — frequency-vector helpers shared by the
  algorithms and the data generators.
"""

from repro.core.frequency import FrequencyVector, frequency_vector_from_keys
from repro.core.haar import (
    exact_haar_arrays,
    haar_transform,
    inverse_haar_transform,
    sparse_haar_arrays,
    sparse_haar_transform,
    wavelet_basis_vector,
    coefficient_level,
    coefficient_support,
)
from repro.core.histogram import WaveletHistogram
from repro.core.topk_coefficients import (
    exact_top_k,
    merge_coefficients,
    top_k_coefficients,
    top_k_from_dense,
)

__all__ = [
    "FrequencyVector",
    "frequency_vector_from_keys",
    "haar_transform",
    "inverse_haar_transform",
    "exact_haar_arrays",
    "sparse_haar_transform",
    "sparse_haar_arrays",
    "wavelet_basis_vector",
    "coefficient_level",
    "coefficient_support",
    "WaveletHistogram",
    "exact_top_k",
    "merge_coefficients",
    "top_k_coefficients",
    "top_k_from_dense",
]
