"""Incremental synopsis maintenance: fold partials into new store versions.

A :class:`SynopsisMaintainer` owns one named synopsis in a
:class:`~repro.serving.store.SynopsisStore` and rolls it forward as update
batches arrive: accumulated :class:`~repro.streaming.partial.PartialSynopsis`
deltas are folded on a configurable cadence, and every serving publish is a
**delta over the previous version** — recorded as ``parent_version`` (plus
update counts) in the store metadata — never a rescan of base data.

**Why the durable state is count space.**  The maintainer's state is one
partial: the full (untruncated) frequency vector of everything applied so
far, as sorted int64 keys and int64 counts.  Folding a batch is
:meth:`~repro.streaming.partial.PartialSynopsis.merge`.  The state is
checkpointed as a companion catalog entry ``<name>.state`` — the WHSYN
payload format is just sorted ``(index, value)`` pairs, so the store writes
the state's keys as int64 indices and its counts as float64 values straight
from its arrays.  Publishing transforms those arrays with the exact integer
transform the batch builds use and re-selects the top-``k``
(:func:`~repro.core.haar.exact_haar_arrays`,
:func:`~repro.core.topk_coefficients.top_k_positions`).  By Haar linearity
this equals "the coefficients of ``v`` plus the coefficient delta of the
updates, re-thresholded" (:func:`~repro.core.topk_coefficients.merge_coefficients`
composed with :func:`~repro.core.topk_coefficients.top_k_coefficients`) — but
doing the sum in integer count space keeps it *exact*, so a streamed synopsis
is byte-identical, checksum included, to a from-scratch batch build of the
same logical multiset.  That is the subsystem's load-bearing invariant:
``ingest(updates) ∘ maintain ≡ batch-build(base ∪ updates)``, enforced by
``tests/test_streaming_equivalence.py``.

**Exactly-once versions under at-least-once delivery.**  Update batches carry
monotonically increasing sequence numbers.  A batch at or below the applied
high-water mark is dropped (duplicate delivery); a gap raises
:class:`~repro.errors.StreamingError` (applying it would silently corrupt the
state).  A maintenance cycle publishes the state checkpoint *first*, then the
serving delta: a crash between the two leaves the serving synopsis lagging
the state, which the next :meth:`SynopsisMaintainer.maintain` detects (the
serving metadata's ``applied_batches`` trails the state's) and completes —
no version is ever skipped or double-applied.

:class:`SlidingWindowMaintainer` is the windowed variant: a ring of
per-epoch partials where advancing merges the newest epoch in and expiry
merges the evicted epoch's :meth:`~repro.streaming.partial.PartialSynopsis.negated`
partial (exact, by linearity).  Its state is reconstructed after a restart
by re-delivering the in-window epochs; epochs at or below the published
high-water mark rebuild the ring without re-publishing.  Each maintainer
keeps to the names it publishes: a cumulative stream needs its
``<name>.state`` checkpoint and a latest version a cumulative stream
published, a windowed stream a latest version that records its ``window``.
Each publish names the version the maintainer last published as its parent,
so the store refuses it once another writer has published the name since.
"""

from __future__ import annotations

import functools
import logging
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

import numpy as np

from repro.core.haar import exact_haar_arrays, validate_domain
from repro.core.topk_coefficients import top_k_positions
from repro.errors import InvalidParameterError, StreamingError, TaskTransientError
from repro.mapreduce.faults import RetryPolicy
from repro.serving.store import SynopsisMetadata, SynopsisStore
from repro.streaming.partial import PartialSynopsis
from repro.telemetry import get_telemetry

__all__ = [
    "DEFAULT_WRITE_RETRY_POLICY",
    "STATE_ALGORITHM",
    "STATE_SUFFIX",
    "SlidingWindowMaintainer",
    "SynopsisMaintainer",
]

# Store writes retry on I/O-shaped transient failures only.  Notably
# ``RuntimeError`` and friends are *not* retryable: a crash injected by the
# recovery tests (and any genuine logic bug) must propagate so the
# crash-between-publishes reconciliation path stays exercised.
DEFAULT_WRITE_RETRY_POLICY = RetryPolicy(
    max_attempts=3, retryable=(OSError, TaskTransientError)
)

# The durable count-space state rides in the same catalog as the synopsis it
# backs, under a dotted companion name (NAME_PATTERN allows dots).
STATE_SUFFIX = ".state"
STATE_ALGORITHM = "stream-state"

logger = logging.getLogger(__name__)


def _retrying_write(policy: Optional[RetryPolicy], stream: str, stage: str,
                    operation: Any) -> Any:
    """Run one store write, retrying per-policy transient failures.

    Exactly-once is preserved because every backend publish is atomic (staged
    then renamed/inserted): a failed attempt leaves no partial version behind,
    so re-running ``operation`` can never double-apply.  Non-retryable errors
    and exhausted budgets propagate unchanged.
    """
    attempt = 1
    while True:
        try:
            return operation()
        except BaseException as error:
            if (policy is None or not policy.is_retryable(error)
                    or attempt >= policy.max_attempts):
                raise
            telemetry = get_telemetry()
            telemetry.metrics.inc("repro_stream_write_retries_total", 1.0,
                                  stage=stage, stream=stream)
            telemetry.tracer.record("stream.write_retry", kind="faults",
                                    stage=stage, stream=stream, attempt=attempt)
            logger.warning(
                "retrying %s write for stream %s (attempt %d/%d failed): %s",
                stage, stream, attempt, policy.max_attempts, error,
            )
            policy.sleep_before_retry(attempt)
            attempt += 1


class _StreamMaintainer:
    """What both maintainers share: the count state and the serving publish.

    Subclasses set :attr:`u`, :attr:`k` and ``_state``, the exact count
    vector every publish transforms, and seed ``_published``, the version
    each publish names as its parent, from the latest version they open.
    """

    u: int
    k: int
    _state: PartialSynopsis

    def __init__(self, store: SynopsisStore, name: str, *, algorithm: str,
                 seed: Optional[int], retry_policy: Optional[RetryPolicy]) -> None:
        self.store = store
        self.name = name
        self.algorithm = algorithm
        self.seed = seed
        self.retry_policy = retry_policy
        self._applied = 0
        self._published: Optional[int] = None
        self._last_publish_s: Optional[float] = None

    @property
    def applied_batches(self) -> int:
        """Sequence high-water mark: batches (epochs) applied to the state."""
        return self._applied

    def _publish_serving(self, build: Dict[str, Any], **span: Any) -> SynopsisMetadata:
        """Publish the state's top-``k`` as a delta over the version it last published.

        The store refuses it when another writer has published the name
        since: nothing is written, and the refusal is not retried.
        """
        telemetry = get_telemetry()
        started = time.perf_counter()
        indices, values = exact_haar_arrays(self._state.keys, self._state.counts, self.u)
        top = np.sort(top_k_positions(indices, np.abs(values), self.k))
        top = top[values[top] != 0.0]
        with telemetry.tracer.span("maintain.publish", kind="streaming",
                                   stream=self.name, applied=self._applied, **span):
            metadata = _retrying_write(
                self.retry_policy, self.name, "publish",
                lambda: self.store.save_delta(
                    self.name,
                    (self.u, self.k, indices[top], values[top]),
                    parent_version=self._published,
                    algorithm=self.algorithm,
                    seed=self.seed,
                    build=build,
                ),
            )
        self._published = metadata.version
        now = time.perf_counter()
        registry = telemetry.metrics
        registry.observe("repro_stream_publish_seconds", now - started,
                         stream=self.name)
        if self._last_publish_s is not None:
            # Publish cadence: wall-clock gap between consecutive versions.
            registry.observe("repro_stream_publish_interval_seconds",
                             now - self._last_publish_s, stream=self.name)
        self._last_publish_s = now
        registry.inc("repro_stream_publishes_total", 1.0, stream=self.name)
        logger.debug("published stream %s v%d (%d applied batch(es))",
                     self.name, metadata.version, self._applied)
        return metadata


class SynopsisMaintainer(_StreamMaintainer):
    """Maintains one named synopsis incrementally from sequenced partials.

    Args:
        store: the catalog to publish into.
        name: serving synopsis name; the durable state checkpoint lives next
            to it as ``<name>.state``.
        u: domain size for a **new** stream; recovered from the state
            checkpoint when the stream already exists (a conflicting explicit
            value raises).
        k: coefficient budget of the serving synopsis; recovered from the
            state checkpoint when omitted on an existing stream.
        algorithm: algorithm label stamped on serving versions.
        cadence: publish every this-many applied batches; ``maintain()`` can
            always be called earlier by hand.
        seed: provenance seed recorded in metadata (streams are
            deterministic; this is bookkeeping, not randomness).
        retry_policy: retry schedule for checkpoint/publish store writes
            (I/O-transient failures only); ``None`` disables write retries.
    """

    def __init__(
        self,
        store: SynopsisStore,
        name: str,
        *,
        u: Optional[int] = None,
        k: Optional[int] = None,
        algorithm: str = "streaming",
        cadence: int = 1,
        seed: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = DEFAULT_WRITE_RETRY_POLICY,
    ) -> None:
        if cadence < 1:
            raise InvalidParameterError(f"cadence must be positive, got {cadence}")
        super().__init__(store, name, algorithm=algorithm, seed=seed,
                         retry_policy=retry_policy)
        self.state_name = name + STATE_SUFFIX
        self.cadence = cadence
        self._pending: List[PartialSynopsis] = []

        state_version = store.latest_version(self.state_name, default=0)
        serving_version = store.latest_version(name, default=0)
        if serving_version and not state_version:
            raise StreamingError(
                f"synopsis {name!r} has published versions but no streaming "
                f"state checkpoint ({self.state_name!r}); a stream must start "
                f"from an unused name (re-ingest the base data as updates)"
            )
        if serving_version:
            build = store.load(name, serving_version).metadata.build
            if "applied_batches" not in build or "window" in build:
                raise StreamingError(
                    f"synopsis {name!r} v{serving_version} was not published by "
                    f"a cumulative stream; its stream cannot continue over it"
                )
        self._published = serving_version or None
        if state_version:
            self._recover(state_version, u, k)
        else:
            if u is None:
                raise InvalidParameterError(
                    f"new stream {name!r} needs a domain size: pass u="
                )
            validate_domain(u)
            self.u = u
            self.k = int(k) if k is not None else 30
            self._state = PartialSynopsis.empty(u)
        if self.k < 1:
            raise InvalidParameterError(f"k must be positive, got {self.k}")

    def _recover(self, state_version: int, u: Optional[int], k: Optional[int]) -> None:
        """Rebuild in-memory state from the latest ``<name>.state`` checkpoint."""
        handle = self.store.load(self.state_name, state_version)
        metadata = handle.metadata
        if u is not None and int(u) != metadata.u:
            raise InvalidParameterError(
                f"stream {self.name!r} has domain u={metadata.u}, "
                f"cannot reopen with u={u}"
            )
        self.u = metadata.u
        build = metadata.build
        # The checkpoint payload carries the count vector in the key basis:
        # "coefficients" here are keys and counts, exactly as checkpointed.
        self._state = PartialSynopsis(
            self.u, *handle.coefficient_arrays(),
            insertions=int(build.get("insertions", 0)),
            deletions=int(build.get("deletions", 0)),
        )
        self._applied = int(build.get("applied_batches", 0))
        recovered_k = build.get("k")
        self.k = int(k) if k is not None else int(recovered_k or 30)

    # -------------------------------------------------------------- properties
    @property
    def pending_batches(self) -> int:
        """Batches ingested but not yet folded (below the cadence)."""
        return len(self._pending)

    @property
    def next_sequence(self) -> int:
        """The sequence number the next new batch must carry."""
        return self._applied + len(self._pending) + 1

    # ----------------------------------------------------------------- ingest
    def ingest(
        self, partial: PartialSynopsis, *, sequence: Optional[int] = None
    ) -> Optional[SynopsisMetadata]:
        """Queue one sequenced batch partial; maintains when the cadence fills.

        Delivery is at-least-once upstream; application is exactly-once here:
        a ``sequence`` at or below the high-water mark is dropped (duplicate
        delivery after a restart), a gap raises
        :class:`~repro.errors.StreamingError`, and ``sequence=None`` means
        "the next one".

        Returns the metadata of a publish this ingest triggered, else ``None``.
        """
        if partial.u != self.u:
            raise InvalidParameterError(
                f"partial has domain u={partial.u}, stream {self.name!r} "
                f"has u={self.u}"
            )
        expected = self.next_sequence
        if sequence is None:
            sequence = expected
        else:
            sequence = int(sequence)
            if sequence < expected:
                return None  # duplicate delivery: already applied or pending
            if sequence > expected:
                raise StreamingError(
                    f"update batch sequence {sequence} skips ahead of "
                    f"{expected} for stream {self.name!r}"
                )
        self._pending.append(partial)
        get_telemetry().metrics.set_gauge(
            "repro_stream_pending_batches", len(self._pending), stream=self.name
        )
        if len(self._pending) >= self.cadence:
            return self.maintain()
        return None

    # --------------------------------------------------------------- maintain
    def maintain(self, *, force: bool = False) -> Optional[SynopsisMetadata]:
        """Fold pending partials into the state and publish the next version.

        With nothing pending, this reconciles instead: if the serving synopsis
        lags the durable state (a crash between the state checkpoint and the
        serving publish), the missing serving version is published now;
        otherwise ``force`` republishes from state and ``not force`` is a
        no-op.  Returns the published metadata, or ``None`` when nothing was
        published.
        """
        if self._pending:
            cycle = functools.reduce(PartialSynopsis.merge, self._pending)
            cycle_batches = len(self._pending)
            self._pending = []
            get_telemetry().metrics.set_gauge(
                "repro_stream_pending_batches", 0, stream=self.name
            )
            self._state = self._state.merge(cycle)
            self._applied += cycle_batches
            self._checkpoint_state()
        elif force or self._serving_lags():
            cycle, cycle_batches = PartialSynopsis.empty(self.u), 0
        else:
            return None
        return self._publish_serving({
            "applied_batches": self._applied,
            "insertions": self._state.insertions,
            "deletions": self._state.deletions,
            "cycle_batches": cycle_batches,
            "cycle_insertions": cycle.insertions,
            "cycle_deletions": cycle.deletions,
        }, cycle_batches=cycle_batches)

    # -------------------------------------------------------------- internals
    def _serving_lags(self) -> bool:
        """Whether the serving synopsis trails the durable state."""
        if self._published is None:
            return self._applied > 0
        build = self.store.load(self.name, self._published).metadata.build
        return int(build.get("applied_batches", -1)) != self._applied

    def _checkpoint_state(self) -> None:
        """Publish the full count vector as the next ``<name>.state`` version."""
        telemetry = get_telemetry()
        started = time.perf_counter()
        state = self._state
        with telemetry.tracer.span("maintain.checkpoint", kind="streaming",
                                   stream=self.name, applied=self._applied):
            _retrying_write(
                self.retry_policy, self.name, "checkpoint",
                lambda: self.store.save(
                    self.state_name,
                    (self.u, None, state.keys, state.counts),
                    algorithm=STATE_ALGORITHM,
                    seed=self.seed,
                    build={
                        "kind": "stream-state",
                        "stream": self.name,
                        "k": self.k,
                        "applied_batches": self._applied,
                        "insertions": state.insertions,
                        "deletions": state.deletions,
                    },
                ),
            )
        telemetry.metrics.observe(
            "repro_stream_checkpoint_seconds", time.perf_counter() - started,
            stream=self.name,
        )
        logger.debug("checkpointed stream %s at %d applied batch(es)",
                     self.name, self._applied)


class SlidingWindowMaintainer(_StreamMaintainer):
    """Maintains a synopsis over the most recent ``window`` epochs of a stream.

    The state is a ring of per-epoch partials: advancing merges the newest
    epoch's partial into the window state and, once the ring is full, merges
    the evicted epoch's **negated** partial — exact by linearity, so every
    published version equals a batch build over exactly the in-window
    updates.  One :meth:`advance` (or :meth:`ingest`) call is one epoch, and
    each epoch that moves the high-water mark publishes a delta version.

    Durability: the window's state is *not* checkpointed (it would duplicate
    the in-window epochs); instead a restarted maintainer is rebuilt by
    re-delivering epochs from :attr:`resume_from` — at-least-once upstream
    delivery again.  Re-delivered epochs at or below the published high-water
    mark re-enter the ring without publishing, so versions stay exactly-once.
    A name whose latest version records no ``window`` (a batch build or a
    cumulative stream) is refused with :class:`~repro.errors.StreamingError`.
    """

    def __init__(
        self,
        store: SynopsisStore,
        name: str,
        *,
        window: int,
        u: Optional[int] = None,
        k: Optional[int] = None,
        algorithm: str = "streaming-window",
        seed: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = DEFAULT_WRITE_RETRY_POLICY,
    ) -> None:
        if window < 1:
            raise InvalidParameterError(f"window must be positive, got {window}")
        super().__init__(store, name, algorithm=algorithm, seed=seed,
                         retry_policy=retry_policy)
        self.window = window
        self._ring: Deque[PartialSynopsis] = deque()
        self._last_seen: Optional[int] = None

        latest = store.latest_version(name, default=0)
        if latest:
            metadata = store.load(name, latest).metadata
            if "window" not in metadata.build:
                raise StreamingError(
                    f"synopsis {name!r} v{latest} was not published by a "
                    f"sliding-window stream; a windowed stream must start "
                    f"from an unused name"
                )
            if u is not None and int(u) != metadata.u:
                raise InvalidParameterError(
                    f"windowed stream {name!r} has domain u={metadata.u}, "
                    f"cannot reopen with u={u}"
                )
            if int(metadata.build["window"]) != window:
                raise StreamingError(
                    f"windowed stream {name!r} was published with window="
                    f"{metadata.build['window']}, cannot reopen with "
                    f"window={window}"
                )
            self.u = metadata.u
            self.k = int(k) if k is not None else int(metadata.k or 30)
            self._applied = int(metadata.build.get("applied_batches", 0))
            self._published = latest
        else:
            if u is None:
                raise InvalidParameterError(
                    f"new windowed stream {name!r} needs a domain size: pass u="
                )
            validate_domain(u)
            self.u = u
            self.k = int(k) if k is not None else 30
        if self.k < 1:
            raise InvalidParameterError(f"k must be positive, got {self.k}")
        self._state = PartialSynopsis.empty(self.u)

    # -------------------------------------------------------------- properties
    @property
    def resume_from(self) -> int:
        """First epoch a restarted maintainer must be re-delivered."""
        if not self._applied:
            return 1
        return max(1, self._applied - self.window + 1)

    @property
    def window_batches(self) -> int:
        """Epochs currently held in the ring."""
        return len(self._ring)

    # ---------------------------------------------------------------- advance
    def advance(
        self, partial: PartialSynopsis, *, sequence: Optional[int] = None
    ) -> Optional[SynopsisMetadata]:
        """Advance the window by one epoch; publishes unless re-delivered.

        Epochs must arrive densely: the first call after construction must
        carry :attr:`resume_from` (which is the next unpublished epoch on a
        fresh stream, or the oldest in-window epoch after a restart) and each
        later call the successor — the window cannot be reconstructed from
        gapped re-delivery.  Returns the published metadata, or ``None`` for
        a re-delivered epoch that only rebuilt ring state.
        """
        if partial.u != self.u:
            raise InvalidParameterError(
                f"partial has domain u={partial.u}, windowed stream "
                f"{self.name!r} has u={self.u}"
            )
        expected = (
            self._last_seen + 1 if self._last_seen is not None else self.resume_from
        )
        if sequence is None:
            sequence = expected
        else:
            sequence = int(sequence)
        if sequence != expected:
            raise StreamingError(
                f"windowed stream {self.name!r} expected epoch {expected}, "
                f"got {sequence} (windows rebuild from dense re-delivery "
                f"starting at resume_from={self.resume_from})"
            )
        self._last_seen = sequence
        self._ring.append(partial)
        self._state = self._state.merge(partial)
        if len(self._ring) > self.window:
            self._state = self._state.merge(self._ring.popleft().negated())
        if sequence <= self._applied:
            return None  # re-delivered epoch: ring rebuilt, already published
        self._applied = sequence
        return self._publish_window()

    def ingest(
        self, partial: PartialSynopsis, *, sequence: Optional[int] = None
    ) -> Optional[SynopsisMetadata]:
        """Alias for :meth:`advance` (interface parity with the cumulative maintainer)."""
        return self.advance(partial, sequence=sequence)

    def maintain(self, *, force: bool = False) -> Optional[SynopsisMetadata]:
        """Windowed streams publish per epoch; ``force`` republishes the window."""
        if force:
            return self._publish_window()
        return None

    # -------------------------------------------------------------- internals
    def _publish_window(self) -> SynopsisMetadata:
        # The state is the sum of the ring's partials, so its update counters
        # are the window's.
        return self._publish_serving({
            "window": self.window,
            "applied_batches": self._applied,
            "window_batches": len(self._ring),
            "window_insertions": self._state.insertions,
            "window_deletions": self._state.deletions,
        }, window_batches=len(self._ring))
