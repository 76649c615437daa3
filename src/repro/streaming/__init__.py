"""repro.streaming — continuous ingest and incremental synopsis maintenance.

The batch pipeline builds a wavelet histogram once, from a finished dataset;
this package keeps one *current* as updates keep arriving:

* :class:`~repro.streaming.partial.PartialSynopsis` — the exact count-space
  delta of a slice of the update stream as sorted int64 keys and counts;
  linear, so partials ``merge()`` associatively and bit-identically in any
  order;
* :class:`~repro.streaming.ingest.StreamIngestor` — turns raw insert/delete
  key batches into partials (``np.unique`` per update array of a shard,
  optionally fanned out across the executor seam);
* :class:`~repro.streaming.maintain.SynopsisMaintainer` — folds sequenced
  partials into a :class:`~repro.serving.store.SynopsisStore` on a cadence,
  publishing each new version as a **delta** over its parent (recorded in
  metadata) with a durable count-space checkpoint for crash recovery;
* :class:`~repro.streaming.maintain.SlidingWindowMaintainer` — the windowed
  variant: a ring of per-epoch partials, expiry by subtraction.

The load-bearing invariant — ``ingest(updates) ∘ maintain ≡
batch-build(base ∪ updates)``, byte-identical coefficients and checksums —
is enforced by ``tests/test_streaming_equivalence.py``.

Layering: ``streaming`` depends on ``core``, ``mapreduce.executor`` and
``serving`` but never on ``algorithms`` — the equivalence with batch builds
is a *tested theorem*, not a code dependency.
"""

from repro.streaming.ingest import StreamIngestor, count_update_shard
from repro.streaming.maintain import (
    STATE_ALGORITHM,
    STATE_SUFFIX,
    SlidingWindowMaintainer,
    SynopsisMaintainer,
)
from repro.streaming.partial import PartialSynopsis

__all__ = [
    "PartialSynopsis",
    "StreamIngestor",
    "SynopsisMaintainer",
    "SlidingWindowMaintainer",
    "STATE_ALGORITHM",
    "STATE_SUFFIX",
    "count_update_shard",
]
