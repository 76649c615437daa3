"""Serving throughput: the vectorized batch engine versus the scalar loop.

This is the PR-2 acceptance benchmark: on the fig10 anchor synopsis (the
scaled default workload — n = 640k Zipfian records, u = 2^15, k = 30) the
batch engine must answer 10k mixed range queries at least **20x faster** than
the legacy per-query coefficient loop while producing numerically identical
answers (atol 1e-9, enforced inside the shared harness).  The synopsis is
round-tripped through a :class:`~repro.serving.store.SynopsisStore` first, so
the measured path is exactly what a serving process executes: load from disk,
verify the checksum, build the engine, answer.  The measurement itself is
:func:`repro.serving.bench.measure_serving_throughput` — the same harness the
``serve-bench`` CLI runs, so the two surfaces cannot drift apart.

Printed series (``-s`` shows them; nothing is written to disk): queries/sec
of the scalar loop and the batch engine, the observed speedup, and the
engine's p50/p99 latency per 256-query batch.
"""

from __future__ import annotations

from repro.core.histogram import WaveletHistogram
from repro.serving.bench import measure_serving_throughput
from repro.serving.store import SynopsisStore

NUM_QUERIES = 10_000
REQUIRED_SPEEDUP = 20.0


def test_query_throughput(experiment_config, tmp_path):
    config = experiment_config
    dataset = config.build_dataset()
    reference = dataset.frequency_vector()
    histogram = WaveletHistogram.from_frequency_vector(reference, config.k)

    # Serve what a server would serve: the synopsis after a store round trip.
    store = SynopsisStore(str(tmp_path / "store"))
    metadata = store.save("fig10-anchor", histogram, algorithm="exact-topk",
                          seed=config.seed)
    served = store.load("fig10-anchor", metadata.version)

    report = measure_serving_throughput(
        served, config.build_workload(count=NUM_QUERIES, mix="mixed"))

    header = (
        f"workload: {NUM_QUERIES} mixed range queries over the fig10 anchor "
        f"synopsis (n={dataset.n}, u=2^{config.u.bit_length() - 1}, "
        f"k={config.k}, {metadata.coefficient_count} coefficients)"
    )
    text = "\n".join([header] + report.table_lines())
    print("\n" + text)

    assert report.speedup >= REQUIRED_SPEEDUP, (
        f"batch engine is only {report.speedup:.1f}x faster than the scalar "
        f"loop (required: {REQUIRED_SPEEDUP:.0f}x)"
    )
