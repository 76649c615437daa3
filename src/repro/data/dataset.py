"""The :class:`Dataset` container used by examples, benchmarks and tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.frequency import FrequencyVector, frequency_vector_from_keys
from repro.core.haar import validate_domain
from repro.errors import InvalidParameterError
from repro.mapreduce.hdfs import HDFS, HdfsFile

__all__ = ["Dataset"]


@dataclass
class Dataset:
    """A generated dataset: a sequence of records with integer keys in ``[1, u]``.

    Attributes:
        name: human-readable dataset name (used as the default HDFS path).
        keys: per-record keys, in file order.
        u: key domain size (power of two).
        record_size_bytes: nominal on-disk size of each record; the paper's
            default Zipfian records are key-only (4 bytes), and Figure 11
            varies this up to 100 kB.
    """

    name: str
    keys: np.ndarray
    u: int
    record_size_bytes: int = 4

    def __post_init__(self) -> None:
        validate_domain(self.u)
        self.keys = np.asarray(self.keys, dtype=np.int64)
        if self.record_size_bytes < 4:
            raise InvalidParameterError(
                f"record size must be at least 4 bytes, got {self.record_size_bytes}"
            )
        if self.keys.size and (self.keys.min() < 1 or self.keys.max() > self.u):
            raise InvalidParameterError("dataset contains keys outside the domain [1, u]")

    @property
    def n(self) -> int:
        """Number of records."""
        return int(self.keys.shape[0])

    @property
    def size_bytes(self) -> int:
        """Total on-disk size."""
        return self.n * self.record_size_bytes

    def frequency_vector(self) -> FrequencyVector:
        """The exact global frequency vector ``v`` of the dataset."""
        return frequency_vector_from_keys(self.keys, self.u)

    def to_hdfs(self, hdfs: HDFS, path: Optional[str] = None) -> HdfsFile:
        """Load the dataset into the simulated HDFS and return the created file."""
        return hdfs.create_file(
            path if path is not None else f"/data/{self.name}",
            self.keys,
            record_size_bytes=self.record_size_bytes,
        )

    def with_record_size(self, record_size_bytes: int) -> "Dataset":
        """Return a copy of the dataset with a different per-record size."""
        return Dataset(
            name=f"{self.name}-r{record_size_bytes}",
            keys=self.keys.copy(),
            u=self.u,
            record_size_bytes=record_size_bytes,
        )

    def subset(self, n: int) -> "Dataset":
        """Return a prefix of the dataset with ``n`` records (for scaling sweeps)."""
        if n < 1 or n > self.n:
            raise InvalidParameterError(f"cannot take a subset of {n} records from {self.n}")
        return Dataset(
            name=f"{self.name}-n{n}",
            keys=self.keys[:n].copy(),
            u=self.u,
            record_size_bytes=self.record_size_bytes,
        )
