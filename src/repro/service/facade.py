"""The :class:`SynopsisService` façade: build → store → serve, one object.

The paper's pipeline is *build a synopsis in MapReduce, then serve approximate
range queries from it*.  The pieces have always existed separately —
algorithms, the job runner, the synopsis store, the query server — and every
caller wired them together by hand.  The service is the one seam:

* ``service.build(algorithm_spec, dataset, profile)`` — turn a dataset into a
  stored, versioned, checksummed synopsis.  *What to build* is an
  :class:`AlgorithmSpec` (resolved through the algorithm registry) or a
  ready-made :class:`~repro.algorithms.base.HistogramAlgorithm`; *how to run*
  is a :class:`~repro.service.profile.RuntimeProfile`; *where it lives* is the
  service's :class:`~repro.serving.store.SynopsisStore` (any backend).
* ``service.build_many([...])`` — a **concurrent build queue**: every
  request's :class:`~repro.mapreduce.plan.JobPlan` joins one
  :class:`~repro.mapreduce.scheduler.ClusterScheduler` batch, so many builds'
  tasks interleave on the cluster's shared map/reduce slot pool while each
  stored payload (and checksum) stays bit-identical to a sequential build.
* ``service.query(names, los, his)`` — **multi-synopsis fan-out**: one
  workload evaluated across many stored attributes.  Every name's resident
  engine answers the whole batch in-process, one name after another in name
  order; no task crosses the executor seam, so the answer vectors cannot
  depend on the profile's executor, and they are bit-identical whether the
  synopses live in a directory or in memory.
* ``service.ingest(name, inserts, deletes)`` / ``service.maintain(name)`` —
  **streaming maintenance**: update batches are counted through the
  profile's executor (:class:`~repro.streaming.ingest.StreamIngestor`) and
  folded into new delta-published store versions by a per-stream
  :class:`~repro.streaming.maintain.SynopsisMaintainer` (or its
  sliding-window variant), with the server's engine table refreshed on
  every publish so queries see new versions immediately.

The service layers strictly on public seams (registry, profile, store,
server, executor); it adds no new math and therefore no new numerics — every
answer it returns is the one the underlying engine computes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.algorithms.base import AlgorithmResult, HistogramAlgorithm
from repro.algorithms.registry import make_algorithm
from repro.data.dataset import Dataset
from repro.errors import InvalidParameterError
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.scheduler import ClusterScheduler, SchedulerStats
from repro.serving.server import QueryServer
from repro.serving.store import SynopsisMetadata, SynopsisStore
from repro.serving.workload import QueryWorkload
from repro.service.profile import RuntimeProfile
from repro.streaming.ingest import StreamIngestor
from repro.streaming.maintain import SlidingWindowMaintainer, SynopsisMaintainer
from repro.telemetry import active_telemetry

__all__ = ["AlgorithmSpec", "BuildReport", "BuildRequest", "SynopsisService"]

logger = logging.getLogger(__name__)

SERVICE_INPUT_PATH = "/service/input"


def _input_hdfs(dataset: Dataset) -> HDFS:
    """A fresh simulated HDFS holding ``dataset`` at the service input path."""
    hdfs = HDFS()
    dataset.to_hdfs(hdfs, SERVICE_INPUT_PATH)
    return hdfs


@dataclass(frozen=True)
class AlgorithmSpec:
    """*What to build*: a registry name plus its parameters, as one value.

    Attributes:
        name: registered algorithm name, case-insensitive (``"twolevel-s"``).
        k: wavelet coefficient budget.
        u: key domain size; defaults to the dataset's domain at build time.
        parameters: algorithm-specific constructor parameters (``epsilon``,
            ``bytes_per_level``, ``num_reducers``, ...).
    """

    name: str
    k: int = 30
    u: Optional[int] = None
    parameters: Mapping[str, Any] = field(default_factory=dict)

    def create(self, default_u: Optional[int] = None) -> HistogramAlgorithm:
        """Instantiate the algorithm through the registry."""
        domain = self.u if self.u is not None else default_u
        if domain is None:
            raise InvalidParameterError(
                f"AlgorithmSpec {self.name!r} has no domain: set u= on the "
                f"spec or build against a dataset"
            )
        return make_algorithm(self.name, u=domain, k=self.k,
                              **dict(self.parameters))


@dataclass(frozen=True)
class BuildRequest:
    """One entry of a :meth:`SynopsisService.build_many` batch.

    Attributes:
        algorithm: a ready-made builder, an :class:`AlgorithmSpec`, or a bare
            registry name (spec defaults apply) — same as ``build``.
        dataset: the input data (loaded into its own fresh simulated HDFS).
        name: catalog name to publish under (the algorithm's paper name when
            omitted).
    """

    algorithm: Union[HistogramAlgorithm, AlgorithmSpec, str]
    dataset: Dataset
    name: Optional[str] = None


@dataclass
class BuildReport:
    """What one ``service.build`` produced: the stored version + the run.

    ``scheduler_stats`` is populated only when the build ran through a
    :meth:`SynopsisService.build_many` scheduler batch; every report of one
    batch shares the batch-wide :class:`SchedulerStats` instance.

    A build that failed permanently inside a scheduler batch (retries
    exhausted) publishes nothing: ``metadata`` and ``result`` are ``None``
    and ``error`` holds the failure message — check :attr:`ok` before
    reading the success-only fields.
    """

    metadata: Optional[SynopsisMetadata]
    result: Optional[AlgorithmResult]
    scheduler_stats: Optional[SchedulerStats] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def version(self) -> int:
        return self.metadata.version

    @property
    def checksum_sha256(self) -> str:
        return self.metadata.checksum_sha256


class SynopsisService:
    """One object for the whole synopsis lifecycle: build, store, serve.

    Args:
        store: the catalog builds publish to and queries serve from; a fresh
            in-memory store when omitted.
        profile: default :class:`RuntimeProfile` for builds and stream
            ingest (a serial-executor profile when omitted).
        shard_size: the ingest shard threshold: an update batch larger than
            this is counted in shards across the profile's executor (see
            :class:`~repro.streaming.ingest.StreamIngestor`).  Queries are
            never sharded.
        max_synopses: LRU bound on concurrently materialised synopses.
    """

    def __init__(
        self,
        store: Optional[SynopsisStore] = None,
        *,
        profile: Optional[RuntimeProfile] = None,
        shard_size: int = 8192,
        max_synopses: Optional[int] = 64,
    ) -> None:
        if shard_size < 1:
            raise InvalidParameterError(f"shard_size must be positive, got {shard_size}")
        self.store = store if store is not None else SynopsisStore.in_memory()
        self.profile = profile if profile is not None else RuntimeProfile()
        self.shard_size = shard_size
        self.server = QueryServer(self.store, max_synopses=max_synopses)
        self._fanout_queries = 0
        self._fanout_batches = 0
        self._maintainers: Dict[str, Union[SynopsisMaintainer, SlidingWindowMaintainer]] = {}
        self._ingestors: Dict[str, StreamIngestor] = {}

    # ------------------------------------------------------------------ build
    def build(
        self,
        algorithm: Union[HistogramAlgorithm, AlgorithmSpec, str],
        dataset: Dataset,
        profile: Optional[RuntimeProfile] = None,
        *,
        name: Optional[str] = None,
    ) -> BuildReport:
        """Build a synopsis over ``dataset`` and publish it as a new version.

        Args:
            algorithm: a ready-made builder, an :class:`AlgorithmSpec`, or a
                bare registry name (spec defaults apply).
            dataset: the input data; it is loaded into a fresh simulated HDFS.
            profile: how to run; the service's default profile when omitted.
            name: catalog name to publish under (the algorithm's paper name
                when omitted).

        Returns:
            A :class:`BuildReport` with the stored version's metadata and the
            full :class:`~repro.algorithms.base.AlgorithmResult`.
        """
        profile = profile if profile is not None else self.profile
        if isinstance(algorithm, str):
            algorithm = AlgorithmSpec(algorithm)
        if isinstance(algorithm, AlgorithmSpec):
            algorithm = algorithm.create(default_u=dataset.u)
        result = algorithm.run(_input_hdfs(dataset), SERVICE_INPUT_PATH,
                               profile=profile)
        metadata = result.publish(
            self.store, name=name, seed=profile.seed,
            extra_build={"dataset": dataset.name},
        )
        return BuildReport(metadata=metadata, result=result)

    def build_many(
        self,
        requests: Sequence[Union[BuildRequest, tuple]],
        profile: Optional[RuntimeProfile] = None,
    ) -> List[BuildReport]:
        """Build a batch of synopses through a concurrent build queue.

        Every request's :class:`~repro.mapreduce.plan.JobPlan` is admitted to
        one :class:`~repro.mapreduce.scheduler.ClusterScheduler`, so the
        builds' map and reduce tasks interleave on the cluster's shared slot
        pool — up to the profile's ``concurrent_jobs`` builds in flight at
        once (``1`` admits them one after another through the same
        scheduler).  Scheduling never changes results: each build's stored
        payload — and therefore its checksum — is bit-identical to a
        sequential ``build`` of the same request, and versions are published
        in request order whatever order the builds finished in.  A request
        that fails permanently publishes nothing and reports its error; the
        other requests still build.

        Args:
            requests: :class:`BuildRequest` entries (or ``(algorithm,
                dataset)`` / ``(algorithm, dataset, name)`` tuples).
            profile: how to run the batch; the service's default when omitted.

        Returns:
            One :class:`BuildReport` per request, in request order.
        """
        profile = profile if profile is not None else self.profile
        normalized: List[BuildRequest] = []
        for request in requests:
            if isinstance(request, BuildRequest):
                normalized.append(request)
            elif isinstance(request, tuple) and len(request) in (2, 3):
                normalized.append(BuildRequest(*request))
            else:
                raise InvalidParameterError(
                    f"build_many expects BuildRequest entries or (algorithm, "
                    f"dataset[, name]) tuples, got {request!r}"
                )

        # Algorithms are created up front, so a bad request fails before
        # anything runs.
        algorithms: List[HistogramAlgorithm] = []
        for request in normalized:
            algorithm = request.algorithm
            if isinstance(algorithm, str):
                algorithm = AlgorithmSpec(algorithm)
            if isinstance(algorithm, AlgorithmSpec):
                algorithm = algorithm.create(default_u=request.dataset.u)
            algorithms.append(algorithm)

        telemetry = active_telemetry(profile.telemetry)
        logger.debug("scheduling %d build(s), %d in flight",
                     len(normalized), profile.concurrent_jobs)
        scheduler = ClusterScheduler.for_cluster(
            profile.resolved_cluster(), profile.build_executor(),
            max_concurrent_jobs=profile.concurrent_jobs,
            telemetry=profile.telemetry)
        with telemetry.tracer.span("service.build_many", kind="serving",
                                   builds=len(normalized), jobs=profile.concurrent_jobs):
            # The entries go in as a generator, so this frame keeps no runner:
            # the scheduler drops each build's runner, and the state store its
            # rounds filled, as soon as that build finishes.
            outcomes = scheduler.run(
                (algorithm.create_plan(SERVICE_INPUT_PATH),
                 JobRunner.from_profile(_input_hdfs(request.dataset), profile))
                for request, algorithm in zip(normalized, algorithms))
        stats = scheduler.last_stats

        reports: List[BuildReport] = []
        # Publish in request order so store versioning is deterministic.  A
        # request whose plan failed permanently has a None outcome: it
        # publishes nothing and surfaces the scheduler's per-job error, while
        # sibling requests publish bit-identical to solo builds.
        for index, (request, algorithm, outcome) in enumerate(
                zip(normalized, algorithms, outcomes)):
            if outcome is None:
                error = stats.job_errors.get(
                    index, "build failed with no recorded error")
                logger.warning("build_many request %d (%s) failed: %s",
                               index, request.name or algorithm.name, error)
                reports.append(BuildReport(metadata=None, result=None,
                                           scheduler_stats=stats, error=error))
                continue
            result = algorithm.assemble_result(outcome, profile)
            metadata = result.publish(
                self.store, name=request.name, seed=profile.seed,
                extra_build={"dataset": request.dataset.name},
            )
            reports.append(BuildReport(metadata=metadata, result=result,
                                       scheduler_stats=stats))
        return reports

    # ------------------------------------------------------------------ query
    def query(
        self,
        names: Union[str, Sequence[str]],
        los: Any,
        his: Any,
        *,
        versions: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, np.ndarray]:
        """Evaluate one range-sum workload across many stored synopses.

        Every range is validated against every name's domain first, so a bad
        range fails the whole batch before anything is evaluated.  Each
        name's resident engine then answers the whole batch in-process, in
        name order.  Nothing is dispatched to the profile's executor, so the
        answers cannot depend on it, and they are bit-identical across store
        backends.

        Args:
            names: stored synopsis names, in the order the result dict should
                hold them (duplicates rejected).
            los: 1-based inclusive lower bounds, shape ``(q,)``.
            his: 1-based inclusive upper bounds, shape ``(q,)``.
            versions: optional per-name version pins (latest when absent).

        Returns:
            ``{name: float64 array of shape (q,)}`` in input-name order.
        """
        if isinstance(names, str):
            names = [names]
        names = list(names)
        if not names:
            raise InvalidParameterError("query needs at least one synopsis name")
        if len(set(names)) != len(names):
            raise InvalidParameterError(f"duplicate synopsis names in {names}")
        los = np.atleast_1d(np.asarray(los, dtype=np.int64))
        his = np.atleast_1d(np.asarray(his, dtype=np.int64))
        if los.shape != his.shape or los.ndim != 1:
            raise InvalidParameterError(
                f"los and his must be 1-D arrays of equal length, "
                f"got shapes {los.shape} and {his.shape}"
            )
        if los.size == 0:
            return {name: np.zeros(0, dtype=np.float64) for name in names}

        # Resolve and validate every name before evaluating any, so a bad
        # range fails the whole batch and every answer comes from the engine
        # it was validated against.
        engines = []
        for name in names:
            engine = self.server.engine(
                name, versions.get(name) if versions is not None else None
            )
            engine.validate_ranges(los, his)
            engines.append(engine)

        telemetry = active_telemetry(self.profile.telemetry)
        logger.debug("fanning %d queries over %d synopses", los.size, len(names))
        with telemetry.tracer.span("service.fanout", kind="serving",
                                   synopses=len(names), queries=int(los.size)):
            answers = {name: engine.range_sum_many(los, his)
                       for name, engine in zip(names, engines)}
        self._fanout_queries += los.size * len(names)
        self._fanout_batches += 1
        registry = telemetry.metrics
        registry.inc("repro_service_fanout_queries_total", float(los.size * len(names)))
        registry.inc("repro_service_fanout_batches_total")
        return answers

    def query_workload(
        self,
        names: Union[str, Sequence[str]],
        workload: QueryWorkload,
        *,
        versions: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, np.ndarray]:
        """Fan a generated workload's range queries across many synopses."""
        return self.query(names, workload.los, workload.his, versions=versions)

    # -------------------------------------------------------------- streaming
    def maintainer(
        self,
        name: str,
        *,
        u: Optional[int] = None,
        k: Optional[int] = None,
        cadence: int = 1,
        window: Optional[int] = None,
    ) -> Union[SynopsisMaintainer, SlidingWindowMaintainer]:
        """The per-stream maintainer for ``name`` (created or recovered once).

        A new name needs ``u`` (and optionally ``k``); an existing stream
        recovers both from its store state.  ``window`` selects the
        sliding-window variant; it must be chosen when the stream is first
        opened and stays fixed for the service's lifetime.
        """
        maintainer = self._maintainers.get(name)
        if maintainer is None:
            if window is not None:
                maintainer = SlidingWindowMaintainer(
                    self.store, name, u=u, k=k, window=window,
                    seed=self.profile.seed,
                )
            else:
                maintainer = SynopsisMaintainer(
                    self.store, name, u=u, k=k, cadence=cadence,
                    seed=self.profile.seed,
                )
            self._maintainers[name] = maintainer
        return maintainer

    def ingest(
        self,
        name: str,
        inserts: Optional[Any] = None,
        deletes: Optional[Any] = None,
        *,
        u: Optional[int] = None,
        k: Optional[int] = None,
        cadence: int = 1,
        window: Optional[int] = None,
        sequence: Optional[int] = None,
    ) -> Optional[SynopsisMetadata]:
        """Stream one update batch into the named synopsis.

        The batch is counted into a partial through the profile's executor
        (large batches shard across it) and handed to the stream's
        maintainer, which publishes a delta version whenever the cadence
        fills (every epoch, for windowed streams).  The server's engine table
        is refreshed on publish so subsequent queries see the new version.

        Returns the metadata of a publish this batch triggered, else ``None``.
        """
        maintainer = self.maintainer(name, u=u, k=k, cadence=cadence, window=window)
        ingestor = self._ingestors.get(name)
        if ingestor is None:
            ingestor = StreamIngestor(
                maintainer.u,
                partition=name,
                executor=self.profile.build_executor(),
                shard_size=self.shard_size,
            )
            self._ingestors[name] = ingestor
        partial = ingestor.batch(inserts, deletes)
        metadata = maintainer.ingest(partial, sequence=sequence)
        if metadata is not None:
            self.server.refresh()
        return metadata

    def maintain(
        self, name: str, *, force: bool = False
    ) -> Optional[SynopsisMetadata]:
        """Fold the stream's pending batches into a published version now.

        Also the recovery entry point: on a stream with nothing pending it
        completes a serving publish an earlier process crashed out of (the
        serving synopsis lagging the durable state), or republishes outright
        with ``force``.  Returns the published metadata, or ``None`` when the
        stream was already up to date.
        """
        maintainer = self._maintainers.get(name) or self.maintainer(name)
        metadata = maintainer.maintain(force=force)
        if metadata is not None:
            self.server.refresh()
        return metadata

    # ---------------------------------------------------------------- serving
    def catalog(self) -> List[SynopsisMetadata]:
        """Latest-version metadata for every stored synopsis."""
        return self.store.entries()

    def refresh(self) -> None:
        """Drop cached synopses so the next query re-resolves latest versions."""
        self.server.refresh()

    def stats(self) -> Dict[str, Any]:
        """Server statistics plus the service's fan-out counters."""
        stats = self.server.stats()
        stats["fanout_queries"] = self._fanout_queries
        stats["fanout_batches"] = self._fanout_batches
        stats["streams"] = len(self._maintainers)
        return stats
