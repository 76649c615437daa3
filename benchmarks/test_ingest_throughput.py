"""Streaming ingest throughput: updates/second through the maintenance path.

This is the PR-6 benchmark: a zipfian insert/delete stream is counted into
:class:`~repro.streaming.partial.PartialSynopsis` partials by the
:class:`~repro.streaming.ingest.StreamIngestor` and folded into a published
synopsis by the :class:`~repro.streaming.maintain.SynopsisMaintainer` on a
fixed cadence.  Two series are measured:

* **ingest-only** — counting updates into partials (the per-batch hot path);
* **ingest+maintain** — the full loop including the cadence's state
  checkpoints and delta publishes into an in-memory store.

After the timed run the streamed synopsis is checked against a from-scratch
batch build of the surviving multiset — the throughput numbers only count if
the result is still byte-identical.

Measured series are printed (``-s`` shows them), never written to disk.

Setting ``REPRO_BENCH_SCALE=quick`` (the CI smoke job) shrinks the stream.
The absolute-throughput assertion additionally needs a machine with at least
4 CPUs — on smaller containers (and at quick scale) the run is
measurement-only, like the other benchmarks' smoke modes.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import WaveletHistogram, sparse_haar_transform, top_k_coefficients
from repro.serving.store import SynopsisStore
from repro.serving.workload import UpdateStreamGenerator
from repro.streaming import StreamIngestor, SynopsisMaintainer

REQUIRED_UPDATES_PER_SECOND = 200_000.0
U = 2**15
K = 30
CADENCE = 8


def test_ingest_throughput():
    quick_scale = os.environ.get("REPRO_BENCH_SCALE") == "quick"
    batch_size = 2_000 if quick_scale else 50_000
    num_batches = 8 if quick_scale else 64

    generator = UpdateStreamGenerator(u=U, seed=7, delete_fraction=0.2)
    batches = generator.batches(batch_size, num_batches)
    total_updates = sum(len(batch) for batch in batches)

    # Series 1: counting updates into partials (no store in the loop).
    ingestor = StreamIngestor(U)
    partials = [ingestor.batch(batches[0].inserts, batches[0].deletes)]
    start = time.perf_counter()
    partials = [ingestor.batch(batch.inserts, batch.deletes)
                for batch in batches]
    ingest_seconds = time.perf_counter() - start

    # Series 2: the full loop — fold, checkpoint, delta-publish on cadence.
    store = SynopsisStore.in_memory()
    maintainer = SynopsisMaintainer(store, "stream", u=U, k=K, cadence=CADENCE)
    start = time.perf_counter()
    for batch, partial in zip(batches, partials):
        maintainer.ingest(partial, sequence=batch.sequence)
    maintainer.maintain()
    maintain_seconds = time.perf_counter() - start

    # Throughput only counts if the streamed synopsis is still byte-identical
    # to a from-scratch batch build of the surviving multiset.
    keys = generator.net_keys(batches)
    counts = np.bincount(keys, minlength=U + 1)
    sparse = {int(key): float(c)
              for key, c in enumerate(counts) if key >= 1 and c}
    coefficients = top_k_coefficients(sparse_haar_transform(sparse, U), K)
    reference = SynopsisStore.in_memory().save(
        "reference", WaveletHistogram.from_coefficients(coefficients, U, k=K),
        algorithm="batch")
    streamed = store.load("stream").metadata
    assert streamed.checksum_sha256 == reference.checksum_sha256
    assert streamed.build["applied_batches"] == num_batches

    ingest_rate = total_updates / ingest_seconds
    maintain_rate = total_updates / maintain_seconds
    workload_name = "quick smoke" if quick_scale else "anchor"
    lines = [
        f"workload: {workload_name} update stream "
        f"(u=2^{U.bit_length() - 1}, k={K}, {num_batches} batches x "
        f"{batch_size} updates, 20% deletes, cadence={CADENCE})",
        f"checksum equals from-scratch batch build: {streamed.checksum_sha256[:12]}",
        f"{'series':<18} {'seconds':>10} {'updates/s':>14}",
        f"{'ingest-only':<18} {ingest_seconds:>10.3f} {ingest_rate:>14,.0f}",
        f"{'ingest+maintain':<18} {maintain_seconds:>10.3f} {maintain_rate:>14,.0f}",
    ]
    text = "\n".join(lines)
    print("\n" + text)

    cpu_count = os.cpu_count() or 1
    if not quick_scale and cpu_count >= 4:
        assert maintain_rate >= REQUIRED_UPDATES_PER_SECOND, (
            f"streaming maintenance sustained only {maintain_rate:,.0f} "
            f"updates/s (required: {REQUIRED_UPDATES_PER_SECOND:,.0f})"
        )
