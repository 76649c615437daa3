"""Streaming ingest ↔ batch build equivalence, plus the PR's serving-layer
and scheduler regression tests.

The load-bearing invariant of ``repro.streaming``::

    ingest(updates) ∘ maintain  ≡  batch-build(base ∪ updates)

Because the maintainer's durable state is the exact count-space frequency
vector and every publish re-runs the same exact integer transform +
top-k pipeline a batch build runs, the streamed synopsis is
not merely *close* to the batch one — the stored payloads are byte-identical
and the sha256 checksums match exactly.  The hypothesis suites below assert
that for insert-only, insert+delete, and sliding-window streams; fixed tests
pin the same equality against a real Send-V MapReduce build on both
executors, and the crash-recovery test restarts the maintainer mid-stream
and verifies no version is skipped or double-applied.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import SendV
from repro.core import (
    WaveletHistogram,
    merge_coefficients,
    sparse_haar_transform,
    top_k_coefficients,
)
from repro.core.haar import exact_haar_arrays
from repro.core.topk_coefficients import top_k_from_arrays
from repro.data.dataset import Dataset
from repro.errors import InvalidParameterError, StreamingError
from repro.mapreduce import HDFS, ClusterScheduler, JobPlan, JobRunner, MapReduceJob, PlanStage
from repro.mapreduce.api import Mapper, Reducer
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.executor import ParallelExecutor, SerialExecutor
from repro.mapreduce.state import StateStore
from repro.serving.engine import BatchQueryEngine, normalize_selectivities
from repro.serving.server import QueryServer
from repro.serving.store import SynopsisStore
from repro.serving.workload import UpdateStreamGenerator
from repro.service import RuntimeProfile, SynopsisService
from repro.streaming import (
    PartialSynopsis,
    SlidingWindowMaintainer,
    StreamIngestor,
    SynopsisMaintainer,
)

U = 128
K = 16


# ----------------------------------------------------------------- helpers
def _batch_publish(store: SynopsisStore, name: str, keys: np.ndarray,
                   u: int, k: int):
    """A from-scratch batch build of ``keys``: count, transform, threshold."""
    counts = np.bincount(np.asarray(keys, dtype=np.int64), minlength=u + 1)
    present = np.flatnonzero(counts)
    coefficients = top_k_from_arrays(
        *exact_haar_arrays(present, counts[present], u), k)
    histogram = WaveletHistogram.from_coefficients(coefficients, u, k=k)
    return store.save(name, histogram, algorithm="batch")


def _stream_all(store: SynopsisStore, name: str, batches, u: int, k: int,
                cadence: int = 1) -> SynopsisMaintainer:
    maintainer = SynopsisMaintainer(store, name, u=u, k=k, cadence=cadence)
    ingestor = StreamIngestor(u, partition=name)
    for batch in batches:
        maintainer.ingest(ingestor.batch(batch.inserts, batch.deletes),
                          sequence=batch.sequence)
    maintainer.maintain()
    return maintainer


def _assert_serving_matches_batch(store, name, generator, batches, u, k):
    reference_store = SynopsisStore.in_memory()
    expected = _batch_publish(reference_store, "reference",
                              generator.net_keys(batches), u, k)
    actual = store.load(name)
    assert actual.metadata.checksum_sha256 == expected.checksum_sha256
    assert (actual.histogram.coefficients
            == reference_store.load("reference").histogram.coefficients)


def _assert_provenance_chain(store, name):
    """Versions are contiguous from 1 and each delta names its predecessor."""
    versions = store.versions(name)
    assert versions == list(range(1, len(versions) + 1))
    applied = []
    for version in versions:
        metadata = store.load(name, version).metadata
        assert metadata.parent_version == (version - 1 if version > 1 else None)
        applied.append(metadata.build["applied_batches"])
    assert applied == sorted(set(applied)), "a publish double-applied batches"


# ------------------------------------------------- streamed == batch build
class TestStreamingMatchesBatchBuild:
    @given(seed=st.integers(0, 2**16),
           num_batches=st.integers(1, 5),
           batch_size=st.integers(8, 120),
           cadence=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_insert_only(self, seed, num_batches, batch_size, cadence):
        generator = UpdateStreamGenerator(u=U, seed=seed)
        batches = generator.batches(batch_size, num_batches)
        store = SynopsisStore.in_memory()
        maintainer = _stream_all(store, "stream", batches, U, K, cadence)
        assert maintainer.applied_batches == num_batches
        _assert_serving_matches_batch(store, "stream", generator, batches, U, K)
        _assert_provenance_chain(store, "stream")

    @given(seed=st.integers(0, 2**16),
           num_batches=st.integers(1, 5),
           batch_size=st.integers(8, 120),
           delete_fraction=st.sampled_from([0.1, 0.25, 0.4]),
           cadence=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_insert_and_delete(self, seed, num_batches, batch_size,
                               delete_fraction, cadence):
        generator = UpdateStreamGenerator(u=U, seed=seed,
                                          delete_fraction=delete_fraction)
        batches = generator.batches(batch_size, num_batches)
        store = SynopsisStore.in_memory()
        _stream_all(store, "stream", batches, U, K, cadence)
        _assert_serving_matches_batch(store, "stream", generator, batches, U, K)
        _assert_provenance_chain(store, "stream")

    @pytest.mark.parametrize("executor_name", ["serial", "parallel"])
    def test_checksum_matches_real_send_v_build(self, executor_name):
        """The acceptance gate: a streamed synopsis is byte-identical to a
        Send-V MapReduce build of the same net multiset, on both executors."""
        executor = (ParallelExecutor(max_workers=2)
                    if executor_name == "parallel" else SerialExecutor())
        try:
            profile = RuntimeProfile(seed=7, executor=executor)
            generator = UpdateStreamGenerator(u=U, seed=13, delete_fraction=0.3)
            batches = generator.batches(400, 4)

            service = SynopsisService(profile=profile)
            for batch in batches:
                service.ingest("hits", batch.inserts, batch.deletes,
                               u=U, k=K, cadence=2)
            service.maintain("hits")

            dataset = Dataset(name="net", keys=generator.net_keys(batches), u=U)
            report = service.build(SendV(U, K), dataset, name="batch-reference")

            streamed = service.store.load("hits")
            assert (streamed.metadata.checksum_sha256
                    == report.metadata.checksum_sha256)
            assert (streamed.histogram.coefficients
                    == service.store.load("batch-reference").histogram.coefficients)
        finally:
            executor.close()

    def test_queries_see_published_deltas(self):
        service = SynopsisService()
        generator = UpdateStreamGenerator(u=U, seed=3)
        batches = generator.batches(200, 2)
        for batch in batches:
            service.ingest("live", batch.inserts, u=U, k=K)
        answers = service.query(["live"], [1], [U])
        assert answers["live"][0] == pytest.approx(
            float(generator.net_keys(batches).size))


# ------------------------------------------------------- sliding windows
class TestSlidingWindow:
    @given(seed=st.integers(0, 2**16),
           num_batches=st.integers(1, 6),
           batch_size=st.integers(8, 80),
           window=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_window_equals_batch_build_of_live_epochs(
            self, seed, num_batches, batch_size, window):
        generator = UpdateStreamGenerator(u=U, seed=seed)
        batches = generator.batches(batch_size, num_batches)
        store = SynopsisStore.in_memory()
        maintainer = SlidingWindowMaintainer(store, "window", u=U, k=K,
                                             window=window)
        ingestor = StreamIngestor(U)
        for batch in batches:
            maintainer.advance(ingestor.batch(batch.inserts, batch.deletes),
                               sequence=batch.sequence)
        # One publish per epoch; the synopsis covers only the last W epochs.
        assert store.versions("window") == list(range(1, num_batches + 1))
        live = batches[-window:]
        reference_store = SynopsisStore.in_memory()
        expected = _batch_publish(
            reference_store, "reference",
            np.concatenate([batch.inserts for batch in live]), U, K)
        actual = store.load("window")
        assert actual.metadata.checksum_sha256 == expected.checksum_sha256
        assert actual.metadata.build["window_batches"] == len(live)

    def test_window_with_deletes_matches_direct_counts(self):
        """Expiry subtracts the evicted epoch exactly, deletions included."""
        u, k, window = 64, 12, 2
        rng = np.random.default_rng(5)
        batches = []
        for sequence in range(1, 5):
            inserts = rng.integers(1, u + 1, size=50).astype(np.int64)
            deletes = np.sort(rng.choice(inserts, size=10, replace=False))
            batches.append((sequence, inserts, deletes))
        store = SynopsisStore.in_memory()
        maintainer = SlidingWindowMaintainer(store, "window", u=u, k=k,
                                             window=window)
        for sequence, inserts, deletes in batches:
            maintainer.advance(PartialSynopsis.from_updates(
                u, inserts=inserts, deletes=deletes), sequence=sequence)
        counts = np.zeros(u + 1, dtype=np.int64)
        for _, inserts, deletes in batches[-window:]:
            np.add.at(counts, inserts, 1)
            np.subtract.at(counts, deletes, 1)
        sparse = {int(key): float(c) for key, c in enumerate(counts)
                  if key >= 1 and c}
        expected = top_k_coefficients(sparse_haar_transform(sparse, u), k)
        assert store.load("window").histogram.coefficients == expected

    def test_reopen_resumes_from_dense_redelivery(self):
        generator = UpdateStreamGenerator(u=U, seed=9)
        batches = generator.batches(40, 5)
        store = SynopsisStore.in_memory()
        first = SlidingWindowMaintainer(store, "window", u=U, k=K, window=3)
        for batch in batches:
            first.advance(PartialSynopsis.from_updates(U, inserts=batch.inserts),
                          sequence=batch.sequence)
        final_checksum = store.load("window").metadata.checksum_sha256

        reopened = SlidingWindowMaintainer(store, "window", window=3)
        assert reopened.resume_from == 3  # applied=5, window=3
        for batch in batches[reopened.resume_from - 1:]:
            metadata = reopened.advance(
                PartialSynopsis.from_updates(U, inserts=batch.inserts),
                sequence=batch.sequence)
            assert metadata is None  # re-delivery rebuilds the ring silently
        assert store.versions("window") == [1, 2, 3, 4, 5]
        assert store.load("window").metadata.checksum_sha256 == final_checksum

        with pytest.raises(StreamingError):
            SlidingWindowMaintainer(store, "window", window=4)

    def test_window_refuses_a_batch_built_name(self):
        """Regression: a window used to delta-publish over a batch build."""
        store = SynopsisStore.in_memory()
        _batch_publish(store, "built", np.array([1, 2, 3]), U, K)
        with pytest.raises(StreamingError):
            SlidingWindowMaintainer(store, "built", window=2)
        assert store.versions("built") == [1]

    def test_window_refuses_a_cumulative_stream(self):
        """Regression: reopening a 12-batch cumulative stream as a window of
        3 used to take its next batches for re-delivered epochs 10 and 11,
        publishing nothing and raising nothing."""
        store = SynopsisStore.in_memory()
        batches = UpdateStreamGenerator(u=U, seed=31).batches(40, 14)
        service = SynopsisService(store)
        for batch in batches[:12]:
            service.ingest("hits", batch.inserts, u=U, k=K)
        with pytest.raises(StreamingError):
            SynopsisService(store).ingest("hits", batches[12].inserts,
                                          u=U, k=K, window=3)
        assert store.versions("hits") == list(range(1, 13))


# ------------------------------------------------ crash / exactly-once
class TestCrashRecovery:
    def test_crash_between_publishes_recovers_exactly_once(self):
        """Kill the maintainer after the state checkpoint but before the
        serving publish; a restarted maintainer must neither skip nor
        double-apply a version under at-least-once redelivery."""
        store = SynopsisStore.in_memory()
        generator = UpdateStreamGenerator(u=U, seed=11, delete_fraction=0.2)
        batches = generator.batches(60, 6)
        maintainer = SynopsisMaintainer(store, "hits", u=U, k=K, cadence=2)
        ingestor = StreamIngestor(U)
        for batch in batches[:4]:
            maintainer.ingest(ingestor.batch(batch.inserts, batch.deletes),
                              sequence=batch.sequence)
        assert store.versions("hits") == [1, 2]

        def crash(*args, **kwargs):
            raise RuntimeError("injected crash before serving publish")

        store.save_delta = crash  # instance attribute shadows the method
        maintainer.ingest(ingestor.batch(batches[4].inserts,
                                         batches[4].deletes), sequence=5)
        with pytest.raises(RuntimeError, match="injected crash"):
            maintainer.ingest(ingestor.batch(batches[5].inserts,
                                             batches[5].deletes), sequence=6)
        del store.save_delta
        # The durable state has all 6 batches; serving stopped at version 2.
        assert store.versions("hits") == [1, 2]

        # Restart: recover from the checkpoint, redeliver the whole stream.
        recovered = SynopsisMaintainer(store, "hits", k=K)
        assert recovered.applied_batches == 6
        assert recovered.u == U
        for batch in batches:
            assert recovered.ingest(
                ingestor.batch(batch.inserts, batch.deletes),
                sequence=batch.sequence) is None
        # maintain() completes the lagging serving publish exactly once.
        metadata = recovered.maintain()
        assert metadata is not None
        assert metadata.version == 3
        assert metadata.parent_version == 2
        assert metadata.build["applied_batches"] == 6
        _assert_provenance_chain(store, "hits")
        _assert_serving_matches_batch(store, "hits", generator, batches, U, K)
        assert recovered.maintain() is None

    def test_sequence_gap_rejected_duplicate_ignored(self):
        store = SynopsisStore.in_memory()
        maintainer = SynopsisMaintainer(store, "seq", u=U, k=K, cadence=10)
        partial = PartialSynopsis.from_updates(
            U, inserts=np.array([1, 2, 3], dtype=np.int64))
        assert maintainer.ingest(partial, sequence=1) is None
        with pytest.raises(StreamingError):
            maintainer.ingest(partial, sequence=3)
        before = maintainer.pending_batches
        assert maintainer.ingest(partial, sequence=1) is None  # duplicate
        assert maintainer.pending_batches == before
        assert maintainer.next_sequence == 2

    def test_serving_without_state_checkpoint_is_refused(self):
        store = SynopsisStore.in_memory()
        _batch_publish(store, "orphan", np.array([1, 2, 3]), U, K)
        with pytest.raises(StreamingError):
            SynopsisMaintainer(store, "orphan", u=U, k=K)

    def test_transient_write_fault_between_checkpoint_and_publish_is_retried(self):
        """An I/O flap on the serving publish — after the state checkpoint
        already succeeded — is retried in place: versions stay exactly-once
        with no reconciliation pass, and the stream remains byte-identical
        to the batch build (PR 8 write-retry policy)."""
        store = SynopsisStore.in_memory()
        generator = UpdateStreamGenerator(u=U, seed=19, delete_fraction=0.1)
        batches = generator.batches(50, 4)
        maintainer = SynopsisMaintainer(store, "flaky", u=U, k=K, cadence=2)
        ingestor = StreamIngestor(U)

        original = store.save_delta
        fails = {"remaining": 2}

        def flaky_save_delta(*args, **kwargs):
            if fails["remaining"] > 0:
                fails["remaining"] -= 1
                raise OSError("injected transient store-write fault")
            return original(*args, **kwargs)

        store.save_delta = flaky_save_delta  # instance attr shadows the method
        for batch in batches:
            maintainer.ingest(ingestor.batch(batch.inserts, batch.deletes),
                              sequence=batch.sequence)
        del store.save_delta

        assert fails["remaining"] == 0, "the injected fault never fired"
        assert store.versions("flaky") == [1, 2]
        _assert_provenance_chain(store, "flaky")
        _assert_serving_matches_batch(store, "flaky", generator, batches, U, K)

    def test_retry_then_duplicate_redelivery_does_not_double_apply(self):
        """At-least-once upstream delivery after a retried publish: replaying
        already-applied sequence numbers must change nothing."""
        store = SynopsisStore.in_memory()
        generator = UpdateStreamGenerator(u=U, seed=23, delete_fraction=0.2)
        batches = generator.batches(40, 4)
        maintainer = SynopsisMaintainer(store, "redeliver", u=U, k=K, cadence=1)
        ingestor = StreamIngestor(U)

        original = store.save_delta
        fails = {"remaining": 1}

        def flaky_save_delta(*args, **kwargs):
            if fails["remaining"] > 0:
                fails["remaining"] -= 1
                raise OSError("injected transient store-write fault")
            return original(*args, **kwargs)

        store.save_delta = flaky_save_delta
        for batch in batches:
            assert maintainer.ingest(
                ingestor.batch(batch.inserts, batch.deletes),
                sequence=batch.sequence) is not None
        del store.save_delta
        assert fails["remaining"] == 0
        versions_before = store.versions("redeliver")
        checksum_before = store.load("redeliver").metadata.checksum_sha256

        # Redeliver every batch (duplicates of applied sequences): dropped.
        for batch in batches:
            assert maintainer.ingest(
                ingestor.batch(batch.inserts, batch.deletes),
                sequence=batch.sequence) is None
        assert maintainer.applied_batches == len(batches)
        assert store.versions("redeliver") == versions_before
        assert store.load("redeliver").metadata.checksum_sha256 == checksum_before
        _assert_serving_matches_batch(store, "redeliver", generator, batches,
                                      U, K)

    def test_exhausted_write_retries_propagate_then_reconcile(self):
        """A persistent write failure exhausts the retry budget and surfaces;
        the durable state is already checkpointed, so the PR-6 reconciliation
        path completes the lagging publish exactly once afterwards."""
        store = SynopsisStore.in_memory()
        generator = UpdateStreamGenerator(u=U, seed=29)
        batches = generator.batches(30, 2)
        maintainer = SynopsisMaintainer(store, "down", u=U, k=K, cadence=1)
        ingestor = StreamIngestor(U)
        maintainer.ingest(ingestor.batch(batches[0].inserts,
                                         batches[0].deletes), sequence=1)
        assert store.versions("down") == [1]

        def broken_save_delta(*args, **kwargs):
            raise OSError("store down for good")

        store.save_delta = broken_save_delta
        with pytest.raises(OSError, match="store down"):
            maintainer.ingest(ingestor.batch(batches[1].inserts,
                                             batches[1].deletes), sequence=2)
        del store.save_delta
        # State has both batches; serving stopped at v1 — maintain() catches up.
        assert store.versions("down") == [1]
        metadata = maintainer.maintain()
        assert metadata is not None
        assert metadata.version == 2
        assert metadata.parent_version == 1
        assert metadata.build["applied_batches"] == 2
        assert maintainer.maintain() is None
        _assert_provenance_chain(store, "down")
        _assert_serving_matches_batch(store, "down", generator, batches, U, K)


# ------------------------------------------- another writer on the name
def _counting_save_delta(store):
    """Count the store's ``save_delta`` calls (an instance attribute)."""
    calls = []
    original = store.save_delta

    def save_delta(*args, **kwargs):
        calls.append(kwargs["parent_version"])
        return original(*args, **kwargs)

    store.save_delta = save_delta
    return calls


class TestForeignVersions:
    """A stream publishes only over the version it last published itself."""

    def test_cumulative_stream_refuses_to_publish_over_another_writer(self):
        """Regression: a maintainer used to chain its next version onto a
        version another writer saved, which its state never held."""
        store = SynopsisStore.in_memory()
        batches = UpdateStreamGenerator(u=U, seed=37).batches(40, 3)
        maintainer = SynopsisMaintainer(store, "hits", u=U, k=K)
        ingestor = StreamIngestor(U)
        for batch in batches[:2]:
            maintainer.ingest(ingestor.batch(batch.inserts, batch.deletes))
        _batch_publish(store, "hits", np.array([1, 2, 3]), U, K)
        calls = _counting_save_delta(store)
        with pytest.raises(InvalidParameterError, match="expects parent version 2"):
            maintainer.ingest(ingestor.batch(batches[2].inserts, batches[2].deletes))
        assert calls == [2]  # refused once, not retried
        with pytest.raises(InvalidParameterError):
            maintainer.maintain(force=True)
        assert store.versions("hits") == [1, 2, 3]
        assert store.load("hits").metadata.algorithm == "batch"

    def test_window_refuses_to_publish_over_another_writer(self):
        store = SynopsisStore.in_memory()
        batches = UpdateStreamGenerator(u=U, seed=41).batches(40, 3)
        maintainer = SlidingWindowMaintainer(store, "recent", u=U, k=K, window=2)
        for batch in batches[:2]:
            maintainer.advance(PartialSynopsis.from_updates(U, inserts=batch.inserts))
        _batch_publish(store, "recent", np.array([1, 2, 3]), U, K)
        calls = _counting_save_delta(store)
        with pytest.raises(InvalidParameterError, match="expects parent version 2"):
            maintainer.advance(PartialSynopsis.from_updates(U, inserts=batches[2].inserts))
        assert calls == [2]
        with pytest.raises(InvalidParameterError):
            maintainer.maintain(force=True)
        assert store.versions("recent") == [1, 2, 3]

    @pytest.mark.parametrize("build", [{}, {"window": 2, "applied_batches": 2}])
    def test_reopened_stream_refuses_a_foreign_latest_version(self, build):
        """Regression: a restarted maintainer published a delta over a batch
        build saved after its last publish."""
        store = SynopsisStore.in_memory()
        batches = UpdateStreamGenerator(u=U, seed=43).batches(40, 3)
        _stream_all(store, "hits", batches[:2], U, K)
        store.save("hits", WaveletHistogram(2 * U, {1: 5.0}, k=K), build=build)
        with pytest.raises(StreamingError, match="v3 was not published by a cumulative"):
            SynopsisService(store).ingest("hits", batches[2].inserts, u=U, k=K)
        assert store.versions("hits") == [1, 2, 3]
        assert store.versions("hits.state") == [1, 2]


# ------------------------------------------------------ partial algebra
def _key_arrays():
    return st.lists(st.integers(1, 64), max_size=40).map(
        lambda keys: np.asarray(keys, dtype=np.int64))


def _assert_same_counts(left, right):
    np.testing.assert_array_equal(left.keys, right.keys)
    np.testing.assert_array_equal(left.counts, right.counts)


def _assert_dense_counts(partial, dense):
    """``partial`` holds exactly the non-zero entries of a dense count vector."""
    live = np.flatnonzero(dense)
    assert partial.keys.dtype == partial.counts.dtype == np.int64
    np.testing.assert_array_equal(partial.keys, live)
    np.testing.assert_array_equal(partial.counts, dense[live])


@st.composite
def _update_streams(draw):
    """``(u, [(inserts, deletes), ...])`` at u from 2 to 2^20; the domain's
    end keys are drawn often, and either array of a batch may be empty."""
    u = 2 ** draw(st.integers(1, 20))
    keys = st.lists(st.one_of(st.sampled_from([1, u]), st.integers(1, u)),
                    max_size=30).map(lambda k: np.asarray(k, dtype=np.int64))
    batches = draw(st.lists(st.tuples(keys, keys), min_size=1, max_size=4))
    return u, batches


class TestPartialSynopsisAlgebra:
    @given(a=_key_arrays(), b=_key_arrays(), c=_key_arrays())
    @settings(max_examples=100, deadline=None)
    def test_merge_is_commutative_and_associative(self, a, b, c):
        pa = PartialSynopsis.from_updates(64, inserts=a)
        pb = PartialSynopsis.from_updates(64, inserts=b, deletes=c[:len(c) // 2])
        pc = PartialSynopsis.from_updates(64, inserts=c)
        _assert_same_counts(pa.merge(pb), pb.merge(pa))
        _assert_same_counts(pa.merge(pb).merge(pc), pa.merge(pb.merge(pc)))

    @given(a=_key_arrays(), b=_key_arrays())
    @settings(max_examples=100, deadline=None)
    def test_transform_is_linear_over_merge(self, a, b):
        """coefficients(a ⊕ b) == coefficients(a) + coefficients(b) to 1e-9 —
        the property that makes per-partition partials mergeable at all.
        (Only to 1e-9: Haar normalization carries √2 factors, so summing
        transformed coefficients rounds differently from transforming summed
        counts — which is exactly why the maintainer's durable state lives in
        count space, where merging *is* bit-exact integer addition.)"""
        def coefficients(partial):
            indices, values = partial.coefficients()
            return dict(zip(indices.tolist(), values.tolist()))

        pa = PartialSynopsis.from_updates(64, inserts=a)
        pb = PartialSynopsis.from_updates(64, inserts=b)
        merged = coefficients(pa.merge(pb))
        summed = merge_coefficients(coefficients(pa), coefficients(pb))
        for index in set(merged) | set(summed):
            assert merged.get(index, 0.0) == pytest.approx(
                summed.get(index, 0.0), abs=1e-9)

    @given(a=_key_arrays())
    @settings(max_examples=100, deadline=None)
    def test_negation_cancels_exactly(self, a):
        partial = PartialSynopsis.from_updates(64, inserts=a)
        assert partial.merge(partial.negated()).is_empty

    @given(stream=_update_streams())
    @settings(max_examples=60, deadline=None)
    def test_partials_and_checkpoint_match_dense_counts(self, stream):
        """Counting, merging, negating and checkpoint recovery against an
        ``np.bincount`` replay of the same updates."""
        u, batches = stream
        dense_total = np.zeros(u + 1, dtype=np.int64)
        partials = []
        for inserts, deletes in batches:
            dense = (np.bincount(inserts, minlength=u + 1)
                     - np.bincount(deletes, minlength=u + 1))
            partial = PartialSynopsis.from_updates(u, inserts, deletes)
            _assert_dense_counts(partial, dense)
            assert (partial.insertions, partial.deletions) == (inserts.size,
                                                               deletes.size)
            dense_total += dense
            partials.append(partial)

        first, middle, last = partials[0], partials[len(partials) // 2], partials[-1]
        _assert_same_counts(first.merge(last), last.merge(first))
        _assert_same_counts(first.merge(middle).merge(last),
                            first.merge(middle.merge(last)))
        assert first.merge(first.negated()).is_empty

        store = SynopsisStore.in_memory()
        maintainer = SynopsisMaintainer(store, "dense", u=u, k=4)
        for partial in partials:
            maintainer.ingest(partial)
        reopened = SynopsisMaintainer(store, "dense")
        assert reopened.applied_batches == len(batches)
        _assert_dense_counts(reopened._state, dense_total)

    def test_fractional_counts_are_refused_before_the_checkpoint(self):
        """Regression: a fractional count used to be accepted, checkpointed,
        and then fail every later publish of the stream, recovery included."""
        store = SynopsisStore.in_memory()
        maintainer = SynopsisMaintainer(store, "frac", u=8, k=4)
        with pytest.raises(InvalidParameterError, match="integer"):
            maintainer.ingest(PartialSynopsis(u=8, keys=[1], counts=[0.5]))
        assert store.versions("frac.state") == []
        maintainer.ingest(PartialSynopsis(u=8, keys=[1], counts=[2.0]))
        assert store.versions("frac") == [1]

    @pytest.mark.parametrize("executor_name", ["serial", "parallel"])
    def test_sharded_ingest_equals_inline(self, executor_name):
        executor = (ParallelExecutor(max_workers=2)
                    if executor_name == "parallel" else SerialExecutor())
        try:
            rng = np.random.default_rng(17)
            inserts = rng.integers(1, U + 1, size=1000).astype(np.int64)
            deletes = np.sort(rng.choice(inserts, size=200, replace=False))
            inline = StreamIngestor(U).batch(inserts, deletes)
            sharded = StreamIngestor(U, executor=executor,
                                     shard_size=64).batch(inserts, deletes)
            _assert_same_counts(sharded, inline)
            assert sharded.insertions == inline.insertions
            assert sharded.deletions == inline.deletions
            assert sharded.batches == inline.batches == 1
        finally:
            executor.close()


# --------------------------------------------- serving-layer regressions
class _RacingServer(QueryServer):
    """Publishes a new version in the middle of a ``selectivities`` call —
    between the engine resolve and the range-sum read."""

    def range_sums(self, name, los, his, *, version=None):
        if not getattr(self, "_raced", False):
            self._raced = True
            tripled = WaveletHistogram.from_dense(
                np.full(64, 6.0), k=64)
            self.store.save(name, tripled, algorithm="exact")
            self.refresh()
        return super().range_sums(name, los, his, version=version)


class TestServingRegressions:
    def test_selectivities_pin_one_version_across_the_call(self):
        """Regression: ``selectivities`` used to resolve the synopsis twice
        (once for the engine total, once inside ``range_sums``), so a publish
        between the two mixed v2 sums with a v1 denominator."""
        store = SynopsisStore.in_memory()
        store.save("web", WaveletHistogram.from_dense(np.full(64, 2.0), k=64),
                   algorithm="exact")
        server = _RacingServer(store)
        fractions = server.selectivities("web", [1], [64])
        # Both numerator and denominator must come from version 1: exactly 1.
        assert fractions[0] == pytest.approx(1.0, abs=1e-12)
        # The race really happened and v2 is live for fresh resolves.
        assert store.latest_version("web") == 2

    @pytest.mark.parametrize(
        "total", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_normalize_selectivities_degenerate_totals(self, total):
        sums = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(normalize_selectivities(sums, total),
                              np.zeros(3))

    def test_normalize_selectivities_positive_total(self):
        sums = np.array([1.0, 3.0])
        assert np.allclose(normalize_selectivities(sums, 4.0), [0.25, 0.75])

    def test_from_arrays_rejects_duplicate_indices(self):
        with pytest.raises(InvalidParameterError, match="duplicate"):
            BatchQueryEngine.from_arrays(64, [1, 2, 2], [0.5, 1.0, 2.0])
        engine = BatchQueryEngine.from_arrays(64, [1, 2], [0.5, 1.0])
        assert engine.estimated_total() == pytest.approx(
            WaveletHistogram.from_coefficients({1: 0.5, 2: 1.0}, 64)
            .range_sum_scalar(1, 64))


# ------------------------------------------------- scheduler regression
class _CountingMapper(Mapper):
    """Emits nothing — the stage is pure side-effect counting."""

    def map(self, record, context):
        context.counters.increment("test.map_only.records")


def _map_only_job(input_path):
    job = MapReduceJob(name="scan", input_path=input_path,
                       mapper_class=_CountingMapper, reducer_class=Reducer)
    # A plan rewrite can legally drop the reduce phase after construction;
    # zero reducers means zero reduce specs at the map barrier.
    job.num_reducers = 0
    return job


class TestSchedulerMapOnlyStage:
    def test_map_only_stage_does_not_stall(self):
        """Regression: with zero reduce specs no reduce-task completion ever
        crossed the reduce barrier, so the scheduler raised
        ``SchedulerError: scheduler stalled with unfinished plans``."""
        from repro.data import ZipfDatasetGenerator

        dataset = ZipfDatasetGenerator(u=64, alpha=1.1, seed=7).generate(
            500, name="scan-input")
        cluster = paper_cluster(split_size_bytes=max(4, dataset.size_bytes // 4))
        input_path = "/data/input"

        hdfs = HDFS()
        dataset.to_hdfs(hdfs, input_path)
        runner = JobRunner(hdfs, cluster=cluster, state_store=StateStore(),
                           seed=7, executor=SerialExecutor())
        stage = PlanStage(name="scan",
                          build=lambda ctx: _map_only_job(ctx.input_path))
        plan = JobPlan(name="map-only", input_path=input_path, stages=(stage,),
                       finish=lambda ctx: ctx.result("scan"))
        scheduler = ClusterScheduler.for_cluster(cluster, SerialExecutor())
        outcome = scheduler.run([(plan, runner)])[0]

        hdfs2 = HDFS()
        dataset.to_hdfs(hdfs2, input_path)
        sequential = JobRunner(hdfs2, cluster=cluster, state_store=StateStore(),
                               seed=7, executor=SerialExecutor()).run(
            _map_only_job(input_path))

        assert outcome.output == sequential.output == []
        assert (outcome.counters.get("test.map_only.records")
                == sequential.counters.get("test.map_only.records")
                == dataset.n)
        assert scheduler.last_stats.rounds == 1
        assert scheduler.last_stats.reduce_tasks == 0
