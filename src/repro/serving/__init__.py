"""repro.serving — the synopsis *serving* layer.

Everything upstream of this package is about **building** wavelet histograms
in (simulated) MapReduce; this package is about what the paper builds them
*for*: answering approximate range-sum / point / selectivity queries at high
throughput.  It provides:

* :class:`~repro.serving.engine.BatchQueryEngine` — a vectorized error-tree
  evaluator that answers thousands of queries per numpy pass instead of one
  query per Python loop;
* :class:`~repro.serving.store.SynopsisStore` — a persistent, versioned,
  checksummed on-disk catalog of built synopses with lazy loading;
* :class:`~repro.serving.server.QueryServer` — a thread-safe front end that
  serves query batches out of a store, optionally sharding large batches
  across the PR-1 :class:`~repro.mapreduce.executor.Executor` seam;
* :class:`~repro.serving.workload.WorkloadGenerator` — reproducible
  uniform / zipfian / range-skewed query mixes for benchmarks and soak tests.

The layering is strictly one-way: ``serving`` depends on ``core`` (the
wavelet math) and ``mapreduce.executor`` (the task-execution seam) but never
on ``algorithms`` or ``experiments``, so any synopsis — however it was built —
can be stored and served.
"""

from repro.serving.backends import DirectoryBackend, MemoryBackend, StoreBackend
from repro.serving.bench import ThroughputReport, measure_serving_throughput
from repro.serving.engine import BatchQueryEngine
from repro.serving.server import QueryServer
from repro.serving.store import StoredSynopsis, SynopsisMetadata, SynopsisStore
from repro.serving.workload import (
    MIX_NAMES,
    QueryWorkload,
    UpdateBatch,
    UpdateStreamGenerator,
    WorkloadGenerator,
)

__all__ = [
    "BatchQueryEngine",
    "QueryServer",
    "ThroughputReport",
    "measure_serving_throughput",
    "StoreBackend",
    "DirectoryBackend",
    "MemoryBackend",
    "StoredSynopsis",
    "SynopsisMetadata",
    "SynopsisStore",
    "MIX_NAMES",
    "QueryWorkload",
    "UpdateBatch",
    "UpdateStreamGenerator",
    "WorkloadGenerator",
]
