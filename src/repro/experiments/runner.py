"""Runs a set of algorithms over one dataset and collects the paper's metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.algorithms.base import AlgorithmResult, HistogramAlgorithm
from repro.algorithms.registry import make_algorithm
from repro.core.frequency import FrequencyVector
from repro.data.dataset import Dataset
from repro.errors import SchedulerError
from repro.experiments.config import ExperimentConfig
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.scheduler import ClusterScheduler
from repro.service.profile import RuntimeProfile

__all__ = ["ExperimentMeasurement", "run_algorithms", "standard_algorithms"]

INPUT_PATH = "/data/input"


@dataclass
class ExperimentMeasurement:
    """One (algorithm, dataset) measurement: the three metrics the paper plots.

    Attributes:
        algorithm: algorithm name.
        communication_bytes: total network traffic (shuffle + side channels).
        simulated_time_s: end-to-end simulated running time.
        sse: sum of squared errors of the reconstructed frequency vector
            against the dataset's exact vector.
        num_rounds: number of MapReduce rounds used.
        details: algorithm-specific extras copied from the result.
    """

    algorithm: str
    communication_bytes: float
    simulated_time_s: float
    sse: float
    num_rounds: int
    details: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_result(cls, result: AlgorithmResult,
                    reference: FrequencyVector) -> "ExperimentMeasurement":
        """Build a measurement from an algorithm result and the exact frequency vector."""
        return cls(
            algorithm=result.algorithm,
            communication_bytes=result.communication_bytes,
            simulated_time_s=result.simulated_time_s,
            sse=result.histogram.sse(reference),
            num_rounds=result.num_rounds,
            details=dict(result.details),
        )


def standard_algorithms(config: ExperimentConfig, u: Optional[int] = None,
                        k: Optional[int] = None,
                        epsilon: Optional[float] = None) -> List[HistogramAlgorithm]:
    """The paper's five default competitors (Figures 5-18).

    Send-V and H-WTopk (exact), Send-Sketch, Improved-S and TwoLevel-S
    (approximate).  Send-Coef and Basic-S are added only where the paper adds
    them (Figure 12 and the sampling ablations).  All five are resolved
    through the algorithm registry, the same factory the CLI and the service
    façade use, so the surfaces cannot drift in how they build algorithms.
    """
    domain = u if u is not None else config.u
    top_k = k if k is not None else config.k
    eps = epsilon if epsilon is not None else config.epsilon
    return [
        make_algorithm("send-v", u=domain, k=top_k),
        make_algorithm("h-wtopk", u=domain, k=top_k),
        make_algorithm("send-sketch", u=domain, k=top_k,
                       bytes_per_level=config.sketch_bytes_per_level),
        make_algorithm("improved-s", u=domain, k=top_k, epsilon=eps),
        make_algorithm("twolevel-s", u=domain, k=top_k, epsilon=eps),
    ]


def run_algorithms(
    dataset: Dataset,
    algorithms: Sequence[HistogramAlgorithm],
    *,
    reference: Optional[FrequencyVector] = None,
    profile: Optional[RuntimeProfile] = None,
) -> List[ExperimentMeasurement]:
    """Run every algorithm over the dataset and measure communication, time and SSE.

    The algorithms are built as **one scheduled batch**: every algorithm's
    :class:`~repro.mapreduce.plan.JobPlan` is admitted to a
    :class:`~repro.mapreduce.scheduler.ClusterScheduler`, at most the
    profile's ``concurrent_jobs`` at a time, and their tasks interleave on the
    cluster's shared map/reduce slot pool.  The measurements are
    bit-identical to running each algorithm on its own with
    :meth:`~repro.algorithms.base.HistogramAlgorithm.run` — scheduling only
    changes wall-clock time — and each carries the batch's scheduler
    statistics in ``details["scheduler_stats"]``.  An algorithm that fails
    permanently raises :class:`~repro.errors.SchedulerError` naming it,
    whatever ``concurrent_jobs`` is.

    Args:
        dataset: the input dataset (loaded into a fresh simulated HDFS).
        algorithms: algorithm instances to run.
        reference: the exact frequency vector; computed from the dataset when
            omitted (pass it in when running many sweeps over the same data).
        profile: the :class:`~repro.service.profile.RuntimeProfile` every
            algorithm runs with; sweeps reprice points against per-point
            clusters with ``config.build_profile(cluster)``.  Measurements are
            executor- and plane-independent by construction, so the execution
            fields only change wall-clock time.
    """
    profile = profile if profile is not None else RuntimeProfile()
    resolved_cluster = profile.resolved_cluster()
    profile = profile.with_overrides(cluster=resolved_cluster)

    hdfs = HDFS(datanodes=[machine.name for machine in resolved_cluster.machines])
    dataset.to_hdfs(hdfs, INPUT_PATH)
    exact = reference if reference is not None else dataset.frequency_vector()

    scheduler = ClusterScheduler.for_cluster(resolved_cluster,
                                             profile.build_executor(),
                                             max_concurrent_jobs=profile.concurrent_jobs,
                                             telemetry=profile.telemetry)
    # Each algorithm gets its own runner (own state store, seed and round
    # numbering, exactly what ``algorithm.run`` constructs), so the batch is
    # bit-identical to running the algorithms one by one.  The entries go in
    # as a generator, so a finished build's runner is freed at once.
    outcomes = scheduler.run(
        (algorithm.create_plan(INPUT_PATH), JobRunner.from_profile(hdfs, profile))
        for algorithm in algorithms)
    stats = scheduler.last_stats
    measurements = []
    for index, (algorithm, outcome) in enumerate(zip(algorithms, outcomes)):
        if outcome is None:
            # Experiment sweeps need every algorithm's numbers: a plan the
            # scheduler isolated as permanently failed fails the sweep loudly
            # instead of producing a table with silent holes.
            raise SchedulerError(
                f"algorithm {algorithm.name!r} failed in the scheduled batch: "
                f"{stats.job_errors.get(index, 'no recorded error')}"
            )
        measurement = ExperimentMeasurement.from_result(
            algorithm.assemble_result(outcome, profile), exact)
        # The batch-wide scheduler statistics describe the shared slot pool,
        # not any single algorithm.
        measurement.details["scheduler_stats"] = stats.describe()
        measurements.append(measurement)
    return measurements
