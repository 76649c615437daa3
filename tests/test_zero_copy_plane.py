"""Zero-copy data plane suite (PR 10): shipping, segments, mmap, equivalence.

The invariants under test:

* **Out-of-band shipping round-trips.**  A spec shipped through a
  :class:`~repro.mapreduce.serialization.ShipmentArena` rebuilds with the
  exact same values; shared-memory-backed arrays come back **read-only**
  (they alias the coordinator's pages) while small in-band buffers keep
  ordinary pickle-copy semantics.  The serial executor ships nothing at all —
  tasks see the coordinator's own objects by reference.

* **Segment lifecycle is leak-free.**  Every path that creates shared-memory
  segments — the phase barrier, scheduler task handles, executor close,
  failed phases, and chaos runs that kill workers mid-build — drains
  :func:`~repro.mapreduce.serialization.live_shipment_segments` back to
  empty.

* **mmap'd payloads equal eager reads byte-for-byte**, the resident-bytes
  gauge tracks map/release, and engines built over a mapped payload share
  its memory instead of copying it.

* **Zero-copy never changes results.**  Coefficients, counters, per-round
  outputs, shuffle bytes and stored checksums are bit-identical across
  ``zero_copy`` on/off, executors and data planes.

Run any suite under the reference copying path with ``--zero-copy off``
(see the root ``conftest.py``).
"""

from __future__ import annotations

import mmap
import pickle

import numpy as np
import pytest

from repro.algorithms import SendV
from repro.core.histogram import WaveletHistogram
from repro.errors import InvalidParameterError, TaskPermanentError
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.columnar import ColumnarBlock
from repro.mapreduce.executor import (
    FunctionTaskSpec,
    ParallelExecutor,
    SerialExecutor,
)
from repro.mapreduce.faults import FaultInjector, RetryPolicy
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.serialization import (
    OOB_THRESHOLD_BYTES,
    SegmentCache,
    ShipmentArena,
    live_shipment_segments,
    load_shipped,
    set_zero_copy_default,
)
from repro.serving.bench import measure_serving_throughput
from repro.serving.engine import BatchQueryEngine
from repro.sketches.gcs import GroupCountSketch, gcs_hash_family
from repro.sketches.wavelet import WaveletGcsSketch
from repro.serving.store import (
    SynopsisStore,
    deserialize_arrays,
    serialize_arrays,
)
from repro.serving.workload import WorkloadGenerator
from repro.service import RuntimeProfile, SynopsisService
from repro.telemetry import get_telemetry

U = 64
K = 10
SEED = 7

# rate=1.0 faults every eligible attempt (see test_fault_tolerance).
ALWAYS = 1.0

# Comfortably above OOB_THRESHOLD_BYTES so arrays always ship out-of-band.
BIG_ELEMENTS = max(4096, OOB_THRESHOLD_BYTES)


def _cluster(dataset):
    return paper_cluster(split_size_bytes=max(4, dataset.size_bytes // 6))


def _run(algorithm_factory, dataset, executor, data_plane="batch",
         zero_copy=True):
    hdfs = HDFS()
    dataset.to_hdfs(hdfs, "/data/input")
    profile = RuntimeProfile(cluster=_cluster(dataset), seed=SEED,
                             executor=executor, data_plane=data_plane,
                             zero_copy=zero_copy)
    return algorithm_factory().run(hdfs, "/data/input", profile=profile)


def _assert_identical(clean, other):
    assert clean.histogram.coefficients == other.histogram.coefficients
    assert clean.counters.as_dict() == other.counters.as_dict()
    assert clean.num_rounds == other.num_rounds
    for clean_round, other_round in zip(clean.rounds, other.rounds):
        assert clean_round.output == other_round.output
        assert clean_round.shuffle_bytes == other_round.shuffle_bytes
    assert clean.communication_bytes == other.communication_bytes


def _histogram(u: int = 128, k: int = 20, seed: int = 5) -> WaveletHistogram:
    rng = np.random.default_rng(seed)
    dense = rng.poisson(12.0, u).astype(float)
    return WaveletHistogram.from_dense(dense, k)


def _assert_same_sketch(copy: WaveletGcsSketch, sketch: WaveletGcsSketch) -> None:
    for mine, theirs in zip(sketch.gcs.levels, copy.gcs.levels):
        np.testing.assert_array_equal(theirs._table, mine._table)
        np.testing.assert_array_equal(theirs._item_bucket, mine._item_bucket)
    indices = range(1, sketch.u + 1)
    assert [copy.estimate_coefficient(i) for i in indices] == [
        sketch.estimate_coefficient(i) for i in indices]
    assert copy.top_k(K) == sketch.top_k(K)


# Worker task bodies must be module-level (the picklability contract).
def _identity(payload):
    return payload


def _payload_sum(payload):
    return float(np.asarray(payload).sum())


# ------------------------------------------------------- protocol-5 shipping
class TestShipmentRoundTrip:
    def test_large_buffers_travel_out_of_band_and_rebuild_read_only(self):
        keys = np.arange(BIG_ELEMENTS, dtype=np.int64)
        values = np.linspace(0.0, 1.0, BIG_ELEMENTS)
        with ShipmentArena() as arena:
            shipped = arena.ship({"keys": keys, "values": values})
            assert shipped.oob_bytes == keys.nbytes + values.nbytes
            assert shipped.inline_bytes == len(shipped.payload)
            assert len(arena.segment_names) == 1
            assert set(arena.segment_names) <= set(live_shipment_segments())
            cache = SegmentCache()
            rebuilt = load_shipped(shipped, cache=cache)
            np.testing.assert_array_equal(rebuilt["keys"], keys)
            np.testing.assert_array_equal(rebuilt["values"], values)
            # Shared pages are exposed read-only: mutation cannot corrupt the
            # coordinator's arrays (or a sibling task's view of them).
            assert not rebuilt["keys"].flags.writeable
            assert not rebuilt["values"].flags.writeable
            del rebuilt
            cache.close()
        assert arena.released
        assert live_shipment_segments() == ()

    def test_shipped_sketch_accumulator_merges_copy_on_write(self):
        # Regression: a sketch rebuilt from out-of-band buffers carries a
        # read-only table; using it as the merge accumulator must take a
        # private copy instead of mutating the shared pages (the Send-Sketch
        # reducer hit "output array is read-only" at benchmark scale, where
        # tables exceed OOB_THRESHOLD_BYTES).
        left = GroupCountSketch(universe=256, shift=3, seed=17)
        right = GroupCountSketch(universe=256, shift=3, seed=17)
        rng = np.random.default_rng(11)
        items = rng.integers(0, 256, size=500, dtype=np.int64)
        left.update_batch(items[:250], np.ones(250))
        right.update_batch(items[250:], np.ones(250))
        original = left._table.copy()
        expected = left._table + right._table
        with ShipmentArena() as arena:
            shipped = arena.ship({"sketch": left})
            assert shipped.oob_bytes > 0
            cache = SegmentCache()
            rebuilt = load_shipped(shipped, cache=cache)["sketch"]
            assert not rebuilt._table.flags.writeable
            rebuilt.merge_in_place(right)
            np.testing.assert_array_equal(rebuilt._table, expected)
            # The coordinator's copy (and the shared pages) stay untouched.
            np.testing.assert_array_equal(left._table, original)
            del rebuilt
            cache.close()
        assert live_shipment_segments() == ()

        # A shipped sketch carries only its counters and re-derives its hash
        # family on load, so a process that has never built that family (an
        # emptied cache) still rebuilds an identical sketch.
        sketch = WaveletGcsSketch(u=1024, bytes_per_level=4096, seed=5)
        sketch.update_frequency_vector(
            {int(key): float(count) for key, count in
             zip(rng.integers(1, 1025, size=300), rng.integers(1, 50, size=300))})
        gcs_hash_family.cache_clear()
        _assert_same_sketch(pickle.loads(pickle.dumps(sketch, protocol=5)), sketch)
        with ShipmentArena() as arena:
            cache = SegmentCache()
            shipped = load_shipped(arena.ship({"sketch": sketch}), cache=cache)["sketch"]
            _assert_same_sketch(shipped, sketch)
            del shipped
            cache.close()
        assert live_shipment_segments() == ()

    def test_small_buffers_stay_inline_and_writable(self):
        small = np.arange(8, dtype=np.int64)
        with ShipmentArena() as arena:
            shipped = arena.ship({"small": small})
            assert shipped.oob_bytes == 0
            assert arena.segment_names == ()
            rebuilt = load_shipped(shipped, cache=SegmentCache())
            np.testing.assert_array_equal(rebuilt["small"], small)
            # In-band buffers are pickle copies: ordinary mutable arrays.
            assert rebuilt["small"].flags.writeable

    def test_repeated_buffer_occupies_shared_memory_once(self):
        coefficients = np.arange(BIG_ELEMENTS, dtype=np.int64)
        with ShipmentArena() as arena:
            first = arena.ship({"shard": 0, "coefficients": coefficients})
            second = arena.ship({"shard": 1, "coefficients": coefficients})
            assert first.oob_bytes == coefficients.nbytes
            assert second.oob_bytes == 0  # deduplicated against the first
            assert len(arena.segment_names) == 1
            cache = SegmentCache()
            one = load_shipped(first, cache=cache)["coefficients"]
            two = load_shipped(second, cache=cache)["coefficients"]
            np.testing.assert_array_equal(one, coefficients)
            np.testing.assert_array_equal(two, coefficients)
            del one, two
            cache.close()
        assert live_shipment_segments() == ()

    def test_release_is_idempotent_and_blocks_further_shipping(self):
        arena = ShipmentArena()
        arena.ship({"x": np.arange(BIG_ELEMENTS, dtype=np.int64)})
        arena.release()
        arena.release()
        assert arena.released
        assert live_shipment_segments() == ()
        with pytest.raises(ValueError):
            arena.ship({"y": 1})

    def test_inline_fallback_without_shared_memory(self):
        keys = np.arange(BIG_ELEMENTS, dtype=np.int64)
        before = live_shipment_segments()
        arena = ShipmentArena(use_shared_memory=False)
        shipped = arena.ship({"keys": keys})
        assert shipped.oob_bytes == 0
        assert shipped.inline_bytes == len(shipped.payload) + keys.nbytes
        assert all(ref.segment is None for ref in shipped.buffers)
        assert live_shipment_segments() == before
        rebuilt = load_shipped(shipped, cache=SegmentCache())
        np.testing.assert_array_equal(rebuilt["keys"], keys)
        arena.release()


class TestSerialPassThrough:
    def test_serial_executor_passes_payload_buffers_by_reference(self):
        payload = np.arange(BIG_ELEMENTS, dtype=np.int64)
        spec = FunctionTaskSpec(task_id=0, function=_identity, payload=payload)
        results = SerialExecutor().run_tasks([spec], slots=1)
        returned = results[0].pairs[0][1]
        # Zero serialization on the serial path: the task saw the object
        # itself, not a rebuilt copy.
        assert returned is payload
        assert np.shares_memory(returned, payload)


# --------------------------------------------------------- segment lifecycle
class TestSegmentLifecycle:
    def _specs(self, count: int = 4):
        return [
            FunctionTaskSpec(task_id=index, function=_payload_sum,
                             payload=np.full(BIG_ELEMENTS, index,
                                             dtype=np.int64),
                             zero_copy=True)
            for index in range(count)
        ]

    def test_phase_barrier_unlinks_every_segment(self):
        executor = ParallelExecutor(max_workers=2)
        try:
            results = executor.run_tasks(self._specs(), slots=4)
            assert [result.pairs[0][1] for result in results] == [
                float(index * BIG_ELEMENTS) for index in range(4)
            ]
            assert live_shipment_segments() == ()
        finally:
            executor.close()
        assert live_shipment_segments() == ()

    def test_phase_ships_a_shared_buffer_once(self):
        """run_tasks lends one arena to every task of the phase, so a buffer
        shared by four specs is charged (and written) once, not four times."""
        shared = np.arange(4096, dtype=np.int64)
        assert shared.nbytes == 32_768
        specs = [FunctionTaskSpec(task_id=index, function=_payload_sum,
                                  payload=shared, zero_copy=True)
                 for index in range(4)]
        metrics = get_telemetry().metrics

        def oob_bytes():
            return metrics.counter_value("repro_task_ship_bytes_total",
                                         phase="function", mode="out-of-band")

        executor = ParallelExecutor(max_workers=2)
        try:
            before = oob_bytes()
            results = executor.run_tasks(specs, slots=4)
            assert oob_bytes() - before == 32_768
            assert [result.pairs[0][1] for result in results] == [
                float(shared.sum())] * 4
            assert live_shipment_segments() == ()
        finally:
            executor.close()

    def test_scheduler_handle_releases_on_completion(self):
        executor = ParallelExecutor(max_workers=2)
        try:
            handle = executor.submit_task(self._specs(count=1)[0])
            assert live_shipment_segments() != ()  # shipped and in flight
            while not executor.wait_any([handle]):
                pass
            assert live_shipment_segments() == ()
            assert handle.result().pairs[0][1] == 0.0
        finally:
            executor.close()

    def test_executor_close_releases_abandoned_handles(self):
        executor = ParallelExecutor(max_workers=2)
        handle = executor.submit_task(self._specs(count=1)[0])
        assert live_shipment_segments() != ()
        executor.close()
        assert live_shipment_segments() == ()
        # The already-submitted task still ran to completion before shutdown.
        assert handle.result().pairs[0][1] == 0.0

    def test_failed_phase_unlinks_segments(self):
        executor = ParallelExecutor(
            max_workers=2,
            retry_policy=RetryPolicy(max_attempts=2),
            fault_injector=FaultInjector(rate=ALWAYS, seed=11,
                                         max_faults_per_task=10),
        )
        try:
            with pytest.raises(TaskPermanentError):
                executor.run_tasks(self._specs(), slots=4)
            assert live_shipment_segments() == ()
        finally:
            executor.close()
        assert live_shipment_segments() == ()

    def test_chaos_pool_rebuild_reclaims_segments_and_matches_clean(
            self, tiny_dataset):
        clean = _run(lambda: SendV(U, K), tiny_dataset, SerialExecutor())
        executor = ParallelExecutor(
            max_workers=2,
            fault_injector=FaultInjector(rate=0.5, seed=3, kill_fraction=1.0))
        before = get_telemetry().metrics.counter_value(
            "repro_pool_rebuilds_total")
        try:
            faulted = _run(lambda: SendV(U, K), tiny_dataset, executor)
            after = get_telemetry().metrics.counter_value(
                "repro_pool_rebuilds_total")
            assert after > before, "no worker died; the test proves nothing"
            _assert_identical(clean, faulted)
            assert live_shipment_segments() == ()
        finally:
            executor.close()
        assert live_shipment_segments() == ()


# ----------------------------------------------------------- mmap'd payloads
class TestMmapPayloads:
    def test_view_matches_eager_read_byte_for_byte(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        metadata = store.save("orders", _histogram(), algorithm="Send-V")
        metrics = get_telemetry().metrics
        before = metrics.counter_value("repro_payload_mmap_total")
        view = store.backend.read_payload_view("orders", metadata.version)
        eager = store.backend.read_payload("orders", metadata.version)
        try:
            assert isinstance(view.obj, mmap.mmap)
            assert bytes(view) == eager
            assert metrics.counter_value(
                "repro_payload_mmap_total") == before + 1
        finally:
            owner = view.obj
            view.release()
            owner.close()

    def test_memory_backend_views_are_heap_backed(self):
        store = SynopsisStore.in_memory()
        metadata = store.save("d", _histogram())
        view = store.backend.read_payload_view("d", metadata.version)
        assert not isinstance(view.obj, mmap.mmap)
        assert bytes(view) == store.backend.read_payload("d", metadata.version)

    def test_loaded_synopsis_maps_shares_and_releases_resident_bytes(
            self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        histogram = _histogram()
        store.save("orders", histogram, algorithm="Send-V")
        metrics = get_telemetry().metrics

        def mapped_resident():
            value = metrics.gauge_value("repro_payload_bytes_resident",
                                        kind="mapped")
            return value if value is not None else 0.0

        before = mapped_resident()
        loaded = store.load("orders")
        indices, values = loaded.coefficient_arrays()
        assert mapped_resident() > before
        assert dict(zip(indices.tolist(),
                        values.tolist())) == histogram.coefficients
        # The engine adopts the mapped arrays instead of copying them.
        engine = loaded.engine()
        engine_indices, engine_values = engine.coefficient_arrays()
        assert np.shares_memory(engine_indices, indices)
        assert np.shares_memory(engine_values, values)
        assert not engine_indices.flags.writeable

        del engine, engine_indices, engine_values, indices, values
        assert loaded.release() > 0
        assert mapped_resident() == before
        # Eviction is not destruction: the next touch faults the payload back.
        assert loaded.histogram.coefficients == histogram.coefficients
        loaded.release()
        assert mapped_resident() == before

    def test_deserialize_arrays_views_the_payload_without_copying(self):
        histogram = _histogram()
        ordered = sorted(histogram.coefficients)
        payload = serialize_arrays(histogram.u, histogram.k, ordered,
                                   [histogram.coefficients[i] for i in ordered])
        u, count, indices, values = deserialize_arrays(payload)
        assert u == histogram.u
        assert count == indices.size
        assert dict(zip(indices.tolist(),
                        values.tolist())) == histogram.coefficients
        raw = np.frombuffer(payload, dtype=np.uint8)
        assert np.shares_memory(indices, raw)
        assert np.shares_memory(values, raw)
        assert not indices.flags.writeable

    def test_serving_bench_reports_only_its_own_counters(self, tmp_path):
        # Regression: the report read the process-wide registry, so bytes an
        # earlier pool run shipped showed up as the serving run's shipping.
        executor = ParallelExecutor(max_workers=1)
        try:
            executor.run_tasks(TestSegmentLifecycle()._specs(count=1), slots=1)
        finally:
            executor.close()
        metrics = get_telemetry().metrics

        def shipped():
            return sum(entry["value"] for entry in metrics.snapshot()["counters"]
                       if entry["name"] == "repro_task_ship_bytes_total")

        before = shipped()
        assert before > 0
        store = SynopsisStore(str(tmp_path))
        metadata = store.save("orders", _histogram(), algorithm="Send-V")
        served = store.load("orders", metadata.version)
        report = measure_serving_throughput(
            served, WorkloadGenerator(128).generate(64), latency_batch_size=0)
        assert shipped() == before  # serving ships nothing
        # The payload faults in (mmap'd) inside the measured call, once.
        assert report.payload_mmap_total == 1


# --------------------------------------------- from_arrays zero-copy adoption
class TestFromArraysZeroCopy:
    def test_conforming_arrays_are_adopted_without_copying(self):
        indices = np.array([1, 2, 5, 9], dtype=np.int64)
        values = np.array([4.0, -1.5, 2.25, 0.5])
        engine = BatchQueryEngine.from_arrays(16, indices, values)
        adopted_indices, adopted_values = engine.coefficient_arrays()
        assert np.shares_memory(adopted_indices, indices)
        assert np.shares_memory(adopted_values, values)
        assert not adopted_indices.flags.writeable
        assert not adopted_values.flags.writeable
        # The engine froze its own views; the caller's arrays are untouched.
        assert indices.flags.writeable and values.flags.writeable

    def test_non_conforming_arrays_fall_back_to_the_reference_path(self):
        unsorted = BatchQueryEngine.from_arrays(
            16, np.array([5, 1, 9, 2], dtype=np.int32),
            [2.25, 4.0, 0.5, -1.5])
        reference = BatchQueryEngine.from_arrays(
            16, np.array([1, 2, 5, 9], dtype=np.int64),
            np.array([4.0, -1.5, 2.25, 0.5]))
        los = np.arange(1, 17, dtype=np.int64)
        his = np.full(16, 16, dtype=np.int64)
        np.testing.assert_allclose(unsorted.range_sum_many(los, his),
                                   reference.range_sum_many(los, his))

    def test_duplicate_indices_are_rejected(self):
        with pytest.raises(InvalidParameterError):
            BatchQueryEngine.from_arrays(
                16, np.array([1, 1], dtype=np.int64), np.array([1.0, 2.0]))


# --------------------------------------------------- columnar barrier concat
class TestColumnarConcat:
    def _block(self, keys, values, pair_size=12):
        return ColumnarBlock(np.asarray(keys, dtype=np.int64),
                             np.asarray(values), pair_size)

    def test_concat_preserves_stream_order(self):
        first = self._block([3, 1], [1.0, 2.0])
        second = self._block([2, 2], [3.0, 4.0])
        merged = ColumnarBlock.concat([first, second])
        np.testing.assert_array_equal(merged.keys, [3, 1, 2, 2])
        np.testing.assert_array_equal(merged.values, [1.0, 2.0, 3.0, 4.0])
        assert merged.pair_size_bytes == 12

    def test_concat_of_one_block_is_the_block_itself(self):
        block = self._block([1], [1.0])
        assert ColumnarBlock.concat([block]) is block

    def test_concat_rejects_empty_and_mixed_inputs(self):
        with pytest.raises(InvalidParameterError):
            ColumnarBlock.concat([])
        with pytest.raises(InvalidParameterError):
            ColumnarBlock.concat([self._block([1], [1.0], pair_size=12),
                                  self._block([2], [2.0], pair_size=16)])
        with pytest.raises(InvalidParameterError):
            ColumnarBlock.concat([self._block([1], [1.0]),
                                  self._block([2], [2])])  # float64 vs int64

    def test_split_by_partition_yields_views_over_one_routed_buffer(self):
        block = self._block([0, 1, 2, 3, 4, 5],
                            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        ids = block.keys % 2
        parts = dict(block.split_by_partition(ids, 2))
        np.testing.assert_array_equal(parts[0].keys, [0, 2, 4])
        np.testing.assert_array_equal(parts[1].keys, [1, 3, 5])
        np.testing.assert_array_equal(parts[0].values, [0.0, 2.0, 4.0])
        np.testing.assert_array_equal(parts[1].values, [1.0, 3.0, 5.0])
        # Both sub-blocks are slices of the same routed buffer, not copies.
        assert parts[0].keys.base is not None
        assert parts[0].keys.base is parts[1].keys.base


# ------------------------------------------------------- on/off equivalence
class TestZeroCopyEquivalence:
    @pytest.mark.parametrize("data_plane", ["batch", "records"])
    @pytest.mark.parametrize("executor_name", ["serial", "parallel"])
    def test_results_bit_identical_with_and_without_zero_copy(
            self, executor_name, data_plane, tiny_dataset):
        runs = {}
        for zero_copy in (True, False):
            executor = (SerialExecutor() if executor_name == "serial"
                        else ParallelExecutor(max_workers=2))
            try:
                runs[zero_copy] = _run(lambda: SendV(U, K), tiny_dataset,
                                       executor, data_plane, zero_copy)
            finally:
                executor.close()
        _assert_identical(runs[True], runs[False])

    def test_build_checksums_identical_with_and_without_zero_copy(
            self, tiny_dataset):
        reports = {}
        for zero_copy in (True, False):
            service = SynopsisService(profile=RuntimeProfile(
                cluster=_cluster(tiny_dataset), seed=SEED,
                zero_copy=zero_copy))
            reports[zero_copy] = service.build(SendV(U, K), tiny_dataset)
        assert (reports[True].checksum_sha256
                == reports[False].checksum_sha256)
        assert (reports[True].result.histogram.coefficients
                == reports[False].result.histogram.coefficients)


class TestZeroCopyFlagPlumbing:
    def test_profile_spec_key_and_describe(self):
        assert RuntimeProfile.parse_overrides(
            "zero-copy=off") == {"zero_copy": False}
        assert RuntimeProfile.parse_overrides(
            "zero-copy=on") == {"zero_copy": True}
        with pytest.raises(InvalidParameterError):
            RuntimeProfile.parse_overrides("zero-copy=maybe")
        assert "zero-copy=off" in RuntimeProfile(zero_copy=False).describe()
        assert "zero-copy" not in RuntimeProfile(zero_copy=True).describe()

    def test_experiment_config_carries_the_flag_into_the_profile(self):
        # Regression: a `--profile zero-copy=off` build used to raise
        # TypeError here; the config's profile must forward the flag.
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig.quick().with_overrides(
            profile=RuntimeProfile.parse("zero-copy=off"))
        assert config.profile.zero_copy is False
        assert config.build_profile().zero_copy_enabled is False
        assert ExperimentConfig.quick().build_profile().zero_copy is None

    def test_unset_flag_resolves_against_the_process_default(self):
        previous = set_zero_copy_default(False)
        try:
            assert RuntimeProfile().zero_copy_enabled is False
            set_zero_copy_default(True)
            assert RuntimeProfile().zero_copy_enabled is True
            assert RuntimeProfile(zero_copy=False).zero_copy_enabled is False
        finally:
            set_zero_copy_default(previous)
