"""Experiment configuration: scaled-down defaults mirroring the paper's Section 5.

The paper's default workload is a 50 GB Zipfian dataset (13.4 billion 4-byte
records, skew 1.1, domain 2^29) split into 256 MB splits (m = 200) on a
16-node cluster with 50 % of a 100 Mbps switch.  Running that inside a pure
Python simulator is infeasible, so the harness scales the workload down while
keeping the *structure* fixed: the same skew grid, the same k and the same
ratio of sample size to dataset size (``eps`` is chosen so ``1/eps^2`` is a
comparable fraction of ``n``).

Because data-dependent work (scan, shuffle, transform, sketch updates) shrinks
with the dataset while fixed MapReduce overheads do not, running times are
computed against a **scaled cluster**: network bandwidth, disk throughput and
CPU clock are divided by the ratio between the paper's 50 GB reference and the
actual dataset size.  Every work term then costs the same number of simulated
seconds it would have cost at paper scale, while the per-round overhead stays
at its real-world value — preserving the regime (and therefore the shape of
the running-time figures).  Communication figures are reported in unscaled
simulated bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.data.dataset import Dataset
from repro.data.generators import ZipfDatasetGenerator
from repro.data.worldcup import WorldCupLikeGenerator
from repro.errors import InvalidParameterError
from repro.mapreduce.cluster import ClusterSpec, MachineSpec, paper_cluster
from repro.service.profile import RuntimeProfile

__all__ = ["ExperimentConfig", "PAPER_REFERENCE_BYTES"]

# The paper's default dataset size (50 GB).
PAPER_REFERENCE_BYTES = 50 * 1024 ** 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by all figure drivers.

    Attributes:
        u: key domain size (paper default 2^29; scaled default 2^15).
        n: number of records (paper default 13.4e9; scaled default 640k).
        alpha: Zipf skew (paper default 1.1).
        k: wavelet histogram size (paper default 30).
        epsilon: sampling approximation parameter, scaled so the expected
            sample size ``1/eps^2`` is a moderate fraction of ``n``.
        record_size_bytes: per-record size (paper default 4).
        target_splits: number of input splits m the split size is derived from
            (paper default m = 200; scaled default 128 so the sqrt(m) gap
            between Improved-S and TwoLevel-S is visible).
        bandwidth_fraction: fraction of the 100 Mbps switch available
            (paper default 0.5).
        sketch_bytes_per_level: GCS space per level (paper: 20 kB for u=2^29;
            scaled default 8 kB — the smallest budget whose estimates are not
            dominated by hash collisions at the scaled energy profile; see
            EXPERIMENTS.md for the resulting deviation on the sketch's
            communication position).
        seed: base RNG seed for data generation and sampling.
        reference_bytes: dataset size the time scaling maps to (50 GB).
        profile: how every build of the experiment executes (executor,
            workers, data plane, concurrent jobs, fault injection, zero-copy
            shipping); results are profile-independent by construction, so
            this only changes wall-clock time.  :meth:`build_profile`
            replaces its cluster and seed.
    """

    u: int = 2 ** 15
    n: int = 640_000
    alpha: float = 1.1
    k: int = 30
    epsilon: float = 0.003
    record_size_bytes: int = 4
    target_splits: int = 128
    bandwidth_fraction: float = 0.5
    sketch_bytes_per_level: int = 8 * 1024
    seed: int = 42
    reference_bytes: int = PAPER_REFERENCE_BYTES
    profile: RuntimeProfile = RuntimeProfile()

    def __post_init__(self) -> None:
        if self.n < 1 or self.target_splits < 1:
            raise InvalidParameterError("n and target_splits must be positive")
        if self.epsilon <= 0:
            raise InvalidParameterError("epsilon must be positive")

    def build_profile(self, cluster: Optional[ClusterSpec] = None) -> RuntimeProfile:
        """The :class:`~repro.service.profile.RuntimeProfile` a build runs with.

        The configuration's :attr:`profile` with an optional per-call cluster
        and the configuration's :attr:`seed`, so one seed drives both the
        dataset and the build.  This is the value the profile-aware entry
        points — ``HistogramAlgorithm.run``, ``run_algorithms``, the service
        façade — consume.
        """
        return self.profile.with_overrides(cluster=cluster, seed=self.seed)

    # ------------------------------------------------------------------ data
    def build_dataset(self, name: Optional[str] = None) -> Dataset:
        """Generate the default Zipfian dataset for this configuration."""
        generator = ZipfDatasetGenerator(u=self.u, alpha=self.alpha, seed=self.seed)
        return generator.generate(self.n, record_size_bytes=self.record_size_bytes, name=name)

    def build_worldcup_dataset(self, name: Optional[str] = None) -> Dataset:
        """Generate the WorldCup-like dataset at the same scale.

        The paper's WorldCup workload has roughly 0.3 distinct keys per record
        (400 M distinct clientobject pairs over 1.35 G records) in a 2^29
        domain; the synthetic stand-in keeps the same key-per-record regime at
        the scaled size.
        """
        generator = WorldCupLikeGenerator(
            u=self.u,
            num_clients=max(64, self.u // 16),
            num_objects=max(64, self.u // 32),
            seed=self.seed + 1998,
        )
        return generator.generate(self.n, record_size_bytes=40, name=name)

    # --------------------------------------------------------------- cluster
    def split_size_bytes(self, dataset: Dataset) -> int:
        """Split size giving approximately ``target_splits`` splits for the dataset."""
        return max(dataset.record_size_bytes,
                   -(-dataset.size_bytes // self.target_splits))  # ceil division

    def scale_factor(self, dataset: Dataset) -> float:
        """How many times smaller the dataset is than the paper's 50 GB reference."""
        return max(1.0, self.reference_bytes / max(dataset.size_bytes, 1))

    def build_cluster(self, dataset: Dataset,
                      bandwidth_fraction: Optional[float] = None,
                      scale: Optional[float] = None) -> ClusterSpec:
        """The paper's 16-node cluster, time-scaled for the dataset (see module docstring).

        Args:
            dataset: the dataset the cluster will process (determines the split size).
            bandwidth_fraction: overrides the configuration's bandwidth share.
            scale: explicit time-scale factor.  Sweeps that change the dataset
                size (Figures 10 and 11) pass the scale of an anchor dataset so
                every point of the sweep is priced against the same cluster.
        """
        fraction = self.bandwidth_fraction if bandwidth_fraction is None else bandwidth_fraction
        base = paper_cluster(
            available_bandwidth_fraction=fraction,
            split_size_bytes=self.split_size_bytes(dataset),
        )
        if scale is None:
            scale = self.scale_factor(dataset)
        machines: List[MachineSpec] = [
            MachineSpec(
                name=machine.name,
                ram_gb=machine.ram_gb,
                cpu_ghz=machine.cpu_ghz / scale,
                map_slots=machine.map_slots,
                reduce_slots=machine.reduce_slots,
                disk_mb_per_s=machine.disk_mb_per_s / scale,
            )
            for machine in base.machines
        ]
        return ClusterSpec(
            machines=machines,
            network_mbps=base.network_mbps / scale,
            available_bandwidth_fraction=fraction,
            split_size_bytes=base.split_size_bytes,
            job_overhead_s=base.job_overhead_s,
            task_overhead_s=base.task_overhead_s,
        )

    def unscaled_cluster(self, dataset: Dataset,
                         bandwidth_fraction: Optional[float] = None) -> ClusterSpec:
        """The paper's cluster without time scaling (used by unit tests)."""
        fraction = self.bandwidth_fraction if bandwidth_fraction is None else bandwidth_fraction
        return paper_cluster(
            available_bandwidth_fraction=fraction,
            split_size_bytes=self.split_size_bytes(dataset),
        )

    # ------------------------------------------------------------ variations
    def with_overrides(self, **changes) -> "ExperimentConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A small configuration for fast tests (u = 2^10, n = 50k, 16 splits)."""
        return cls(u=2 ** 10, n=50_000, target_splits=16, epsilon=0.02,
                   sketch_bytes_per_level=1024)
