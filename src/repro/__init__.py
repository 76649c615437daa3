"""repro — reproduction of "Building Wavelet Histograms on Large Data in MapReduce".

The package is organised as:

* :mod:`repro.core` — Haar wavelets, the :class:`~repro.core.histogram.WaveletHistogram`
  synopsis and multi-dimensional transforms;
* :mod:`repro.mapreduce` — the simulated Hadoop substrate (HDFS, job runner,
  counters, side channels);
* :mod:`repro.cost` — the running-time cost model;
* :mod:`repro.sketches`, :mod:`repro.sampling`, :mod:`repro.topk` — the
  algorithmic substrates (GCS/AMS sketches, two-level sampling, signed TPUT);
* :mod:`repro.algorithms` — the paper's five main algorithms plus the two
  extra baselines, each runnable end to end;
* :mod:`repro.data` — Zipfian / WorldCup-like dataset generators;
* :mod:`repro.experiments` — the figure-by-figure experiment harness;
* :mod:`repro.serving` — the synopsis serving layer: a persistent
  :class:`~repro.serving.store.SynopsisStore` over pluggable backends, the
  vectorized :class:`~repro.serving.engine.BatchQueryEngine` and the
  thread-safe :class:`~repro.serving.server.QueryServer`;
* :mod:`repro.service` — the unified service API:
  :class:`~repro.service.profile.RuntimeProfile` (*how to run*), the
  algorithm registry (*what to build*) and the
  :class:`~repro.service.facade.SynopsisService` façade (build → store →
  multi-synopsis serving);
* :mod:`repro.streaming` — continuous ingest: mergeable
  :class:`~repro.streaming.partial.PartialSynopsis` count deltas, the
  :class:`~repro.streaming.ingest.StreamIngestor` and the incremental
  :class:`~repro.streaming.maintain.SynopsisMaintainer` (delta publishes,
  sliding windows), byte-identical to batch builds;
* :mod:`repro.telemetry` — the unified observability layer: a thread-safe
  :class:`~repro.telemetry.MetricsRegistry` (labeled counters, gauges,
  fixed-bucket histograms), a :class:`~repro.telemetry.Tracer` emitting
  structured span events with JSONL export, and JSON / Prometheus-text
  exposition.  Every layer instruments into the process-global bundle
  (:func:`~repro.telemetry.get_telemetry`); telemetry never touches task
  RNGs, payloads or merge order, so it cannot change results.

Quickstart::

    from repro import (RuntimeProfile, SynopsisService, ZipfDatasetGenerator,
                       make_algorithm)

    dataset = ZipfDatasetGenerator(u=2**14, alpha=1.1).generate(200_000)
    service = SynopsisService()                 # in-memory store
    profile = RuntimeProfile(seed=7)            # how to run
    report = service.build(                     # what to build, built + stored
        make_algorithm("twolevel-s", u=dataset.u, k=30, epsilon=0.005),
        dataset, profile)
    answers = service.query([report.name], [1], [dataset.u])
    print(report.version, report.checksum_sha256[:12], answers)
"""

import logging

from repro.algorithms import (
    AlgorithmResult,
    BasicSampling,
    HistogramAlgorithm,
    HWTopk,
    ImprovedSampling,
    SendCoef,
    SendSketch,
    SendV,
    TwoLevelSampling,
    algorithm_names,
    make_algorithm,
)
from repro.core import FrequencyVector, WaveletHistogram, haar_transform, inverse_haar_transform
from repro.cost import CostModel, CostParameters
from repro.data import Dataset, UniformDatasetGenerator, WorldCupLikeGenerator, ZipfDatasetGenerator
from repro.errors import TaskPermanentError, TaskTransientError
from repro.mapreduce import (
    HDFS,
    ClusterScheduler,
    ClusterSpec,
    FaultInjector,
    JobPlan,
    JobRunner,
    MapReduceJob,
    PlanStage,
    RetryPolicy,
)
from repro.mapreduce.cluster import paper_cluster
from repro.service import AlgorithmSpec, BuildRequest, RuntimeProfile, SynopsisService
from repro.serving import (
    BatchQueryEngine,
    DirectoryBackend,
    MemoryBackend,
    QueryServer,
    SynopsisStore,
    UpdateStreamGenerator,
    WorkloadGenerator,
)
from repro.streaming import (
    PartialSynopsis,
    SlidingWindowMaintainer,
    StreamIngestor,
    SynopsisMaintainer,
)
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    get_telemetry,
    registry_to_prometheus,
    set_telemetry,
)

# Library convention: the package emits log records but never configures
# handlers — applications opt in (the CLI's --log-level does).
logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "7.0.0"

__all__ = [
    "AlgorithmResult",
    "BasicSampling",
    "HistogramAlgorithm",
    "HWTopk",
    "ImprovedSampling",
    "SendCoef",
    "SendSketch",
    "SendV",
    "TwoLevelSampling",
    "FrequencyVector",
    "WaveletHistogram",
    "haar_transform",
    "inverse_haar_transform",
    "CostModel",
    "CostParameters",
    "Dataset",
    "ZipfDatasetGenerator",
    "UniformDatasetGenerator",
    "WorldCupLikeGenerator",
    "HDFS",
    "ClusterScheduler",
    "ClusterSpec",
    "JobPlan",
    "JobRunner",
    "MapReduceJob",
    "PlanStage",
    "FaultInjector",
    "RetryPolicy",
    "TaskTransientError",
    "TaskPermanentError",
    "paper_cluster",
    "make_algorithm",
    "algorithm_names",
    "RuntimeProfile",
    "AlgorithmSpec",
    "BuildRequest",
    "SynopsisService",
    "BatchQueryEngine",
    "QueryServer",
    "DirectoryBackend",
    "MemoryBackend",
    "SynopsisStore",
    "WorkloadGenerator",
    "UpdateStreamGenerator",
    "PartialSynopsis",
    "StreamIngestor",
    "SynopsisMaintainer",
    "SlidingWindowMaintainer",
    "MetricsRegistry",
    "Telemetry",
    "Tracer",
    "get_telemetry",
    "set_telemetry",
    "registry_to_prometheus",
    "__version__",
]
