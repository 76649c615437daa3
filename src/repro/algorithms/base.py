"""Common driver interface and result type for all histogram algorithms."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.histogram import WaveletHistogram
from repro.cost.model import CostModel
from repro.errors import InvalidParameterError
from repro.mapreduce.api import BatchMapper, MapperContext
from repro.mapreduce.counters import CounterNames, Counters
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.plan import JobPlan, execute_plan
from repro.mapreduce.runtime import JobResult, JobRunner
from repro.service.profile import RuntimeProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.store import SynopsisStore

__all__ = ["AlgorithmResult", "HistogramAlgorithm", "SplitCountMapper"]

# Job Configuration keys shared by all algorithms.
CONF_DOMAIN = "wavelet.domain.u"
CONF_K = "wavelet.top.k"
CONF_EPSILON = "wavelet.epsilon"
CONF_TOTAL_RECORDS = "wavelet.total.records"
CONF_SAMPLE_PROBABILITY = "wavelet.sample.probability"
CONF_SKETCH_SEED = "wavelet.sketch.seed"
CONF_SKETCH_BYTES_PER_LEVEL = "wavelet.sketch.bytes.per.level"
CONF_T1_OVER_M = "wavelet.hwtopk.t1.over.m"
CACHE_CANDIDATES = "wavelet.hwtopk.candidates"


class SplitCountMapper(BatchMapper):
    """A mapper that counts its split's keys, then transforms them in Close.

    Send-Coef, H-WTopk's round 1 and Send-Sketch all start from the split's
    local frequency vector.  :meth:`map` and :meth:`map_batch` only collect
    the keys, charging the paper's one hash-map update per record;
    :meth:`split_counts` counts them with one sorted ``np.unique``, which
    gives the sorted distinct keys and int64 counts that
    :func:`~repro.core.haar.exact_haar_numerators` takes.  Both data planes
    collect the same keys, so they count the same vector.
    """

    def setup(self, context: MapperContext) -> None:
        self._u = int(context.configuration.require(CONF_DOMAIN))
        self._records: List[int] = []
        self._batches: List[np.ndarray] = []

    def map(self, record: int, context: MapperContext) -> None:
        self._records.append(record)
        context.counters.increment(CounterNames.HASHMAP_UPDATES)

    def map_batch(self, keys: np.ndarray, context: MapperContext) -> None:
        self._batches.append(keys)
        context.counters.increment_by(CounterNames.HASHMAP_UPDATES, 1.0,
                                      int(keys.size))

    @property
    def batched(self) -> bool:
        """Whether this task ran on the batch plane."""
        return bool(self._batches)

    def split_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """The split's distinct keys, ascending, and their int64 counts."""
        keys = np.concatenate(
            self._batches + [np.asarray(self._records, dtype=np.int64)])
        return np.unique(keys, return_counts=True)


@dataclass
class AlgorithmResult:
    """Outcome of running one algorithm end to end.

    Attributes:
        algorithm: algorithm name (e.g. ``"TwoLevel-S"``).
        histogram: the k-term wavelet histogram produced.
        rounds: the per-MapReduce-round job results, in execution order.
        communication_bytes: total network traffic (shuffle + side channels).
        simulated_time_s: end-to-end simulated running time.
        counters: all counters merged across rounds.
        details: algorithm-specific extras (thresholds, sample sizes, ...).
    """

    algorithm: str
    histogram: WaveletHistogram
    rounds: List[JobResult] = field(default_factory=list)
    communication_bytes: float = 0.0
    simulated_time_s: float = 0.0
    counters: Counters = field(default_factory=Counters)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_rounds(self) -> int:
        """Number of MapReduce rounds the algorithm used."""
        return len(self.rounds)

    def sse(self, reference) -> float:
        """SSE of the histogram against a reference frequency vector."""
        return self.histogram.sse(reference)

    def publish(self, store: "SynopsisStore", *, name: Optional[str] = None,
                seed: Optional[int] = None,
                extra_build: Optional[Dict[str, Any]] = None):
        """Persist the histogram to ``store`` with this run's provenance.

        The single publish path of the service façade's ``build`` and
        ``build_many``, so the stored build metadata cannot drift between
        entry points.  Records the entry under ``details["store_entry"]`` and
        returns the new version's metadata.

        Args:
            store: the catalog to publish into.
            name: catalog name (the algorithm name when omitted).
            seed: the build's RNG seed, recorded as provenance.
            extra_build: additional build-metadata keys (e.g. the dataset
                name) merged over the standard counters.
        """
        build = {
            "communication_bytes": self.communication_bytes,
            "simulated_time_s": self.simulated_time_s,
            "rounds": self.num_rounds,
            "counters": self.counters.as_dict(),
        }
        build.update(extra_build or {})
        metadata = store.save(
            name if name is not None else self.algorithm,
            self.histogram,
            algorithm=self.algorithm,
            seed=seed,
            build=build,
        )
        self.details["store_entry"] = {
            "name": metadata.name,
            "version": metadata.version,
            "checksum_sha256": metadata.checksum_sha256,
        }
        return metadata


class HistogramAlgorithm(ABC):
    """Base class for all wavelet-histogram construction algorithms.

    Subclasses set :attr:`name` and implement :meth:`create_plan`, which
    declares the algorithm's MapReduce rounds as a
    :class:`~repro.mapreduce.plan.JobPlan` — a DAG of stages plus a
    driver-finish step.  The shared :meth:`run` driver executes that plan
    sequentially on a runner built from a
    :class:`~repro.service.profile.RuntimeProfile` and assembles the result;
    the cluster scheduler executes the *same* plan concurrently with other
    jobs.
    """

    name: str = "abstract"

    def __init__(self, u: int, k: int) -> None:
        if k < 1:
            raise InvalidParameterError(f"k must be positive, got {k}")
        self.u = u
        self.k = k

    # ------------------------------------------------------------------ hooks
    @abstractmethod
    def create_plan(self, input_path: str) -> JobPlan:
        """Declare the algorithm's rounds as a :class:`JobPlan` over ``input_path``."""

    # ----------------------------------------------------------------- driver
    def run(self, hdfs: HDFS, input_path: str, *,
            profile: Optional[RuntimeProfile] = None) -> AlgorithmResult:
        """Execute the algorithm against a file already stored in the simulated HDFS.

        Args:
            hdfs: the simulated file system holding the input.
            input_path: path of the input file.
            profile: how to run: a :class:`~repro.service.profile.RuntimeProfile`
                bundling cluster, cost parameters, seed, executor spec and data
                plane.  The default profile runs on the paper's 16-node cluster
                with the serial executor and the batch data plane, seed 7.

        To store the result, build through
        :meth:`~repro.service.facade.SynopsisService.build` or call
        :meth:`AlgorithmResult.publish`.
        """
        profile = profile if profile is not None else RuntimeProfile()
        runner = JobRunner.from_profile(hdfs, profile)
        outcome = execute_plan(self.create_plan(input_path), runner)
        return self.assemble_result(outcome, profile)

    def assemble_result(self, outcome: "ExecutionOutcome",
                        profile: RuntimeProfile) -> AlgorithmResult:
        """Fold an :class:`ExecutionOutcome` into the full :class:`AlgorithmResult`.

        The one assembly path (cost model, merged counters, histogram) shared
        by :meth:`run` and the cluster scheduler's batch entry points, so a
        scheduled build reports exactly what a sequential build reports.
        """
        cluster_spec = profile.resolved_cluster()
        cost_model = CostModel(cluster_spec, parameters=profile.cost_parameters)
        counters = Counters()
        for round_result in outcome.rounds:
            counters = counters.merge(round_result.counters)

        histogram = WaveletHistogram.from_coefficients(outcome.coefficients, self.u, k=self.k)
        return AlgorithmResult(
            algorithm=self.name,
            histogram=histogram,
            rounds=outcome.rounds,
            communication_bytes=cost_model.total_communication_bytes(outcome.rounds),
            simulated_time_s=cost_model.total_seconds(outcome.rounds),
            counters=counters,
            details=outcome.details,
        )

    # ------------------------------------------------------------- utilities
    @staticmethod
    def log2_domain(u: int) -> int:
        """``log2(u)``, validated to be integral."""
        log_u = int(math.log2(u))
        if 1 << log_u != u:
            raise InvalidParameterError(f"domain size must be a power of two, got {u}")
        return log_u


@dataclass
class ExecutionOutcome:
    """What a concrete algorithm hands back to the shared driver."""

    coefficients: Dict[int, float]
    rounds: List[JobResult]
    details: Dict[str, Any] = field(default_factory=dict)
