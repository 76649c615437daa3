"""MemoryBackend vs DirectoryBackend: one catalog contract, two mechanisms.

The store layer's guarantees — deterministic WHSYN001 bytes, sha256 integrity
verification, append-only versioning, lazy loading, version pinning — must
hold identically on both backends, and a synopsis saved through either must
be *byte-identical* (same checksum, same payload) to the other.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.histogram import WaveletHistogram
from repro.errors import (
    InvalidParameterError,
    SynopsisIntegrityError,
    SynopsisNotFoundError,
)
from repro.mapreduce.executor import ParallelExecutor
from repro.service import RuntimeProfile, SynopsisService
from repro.serving.backends import DirectoryBackend, MemoryBackend
from repro.serving.server import QueryServer
from repro.serving.store import SynopsisStore, serialize_arrays
from repro.serving.workload import WorkloadGenerator


def _histogram(u: int = 128, k: int = 20, seed: int = 5) -> WaveletHistogram:
    rng = np.random.default_rng(seed)
    dense = rng.poisson(12.0, u).astype(float)
    return WaveletHistogram.from_dense(dense, k)


@pytest.fixture()
def memory_store():
    return SynopsisStore.in_memory()


class TestMemoryRoundTrip:
    def test_save_load_round_trip(self, memory_store):
        histogram = _histogram()
        metadata = memory_store.save("orders", histogram, algorithm="Send-V",
                                     seed=3, build={"rounds": 1})
        assert metadata.version == 1
        loaded = memory_store.load("orders")
        assert loaded.metadata == metadata
        assert not loaded.loaded  # metadata only until first access
        assert loaded.histogram.coefficients == histogram.coefficients
        assert loaded.loaded
        assert loaded.directory is None  # diskless backend has no location

    def test_versions_append_only_and_pinnable(self, memory_store):
        first, second = _histogram(seed=1), _histogram(seed=2)
        memory_store.save("d", first, algorithm="A")
        metadata = memory_store.save("d", second, algorithm="B")
        assert metadata.version == 2
        assert memory_store.versions("d") == [1, 2]
        assert memory_store.latest_version("d") == 2
        assert memory_store.load("d").histogram.coefficients == second.coefficients
        assert memory_store.load("d", version=1).histogram.coefficients == \
            first.coefficients

    def test_unknown_name_and_version(self, memory_store):
        with pytest.raises(SynopsisNotFoundError):
            memory_store.load("missing")
        memory_store.save("present", _histogram())
        with pytest.raises(SynopsisNotFoundError):
            memory_store.load("present", version=9)

    def test_rejects_bad_names(self, memory_store):
        for bad in ("", "../escape", "a/b", ".hidden", "spa ce"):
            with pytest.raises(InvalidParameterError):
                memory_store.save(bad, _histogram())

    def test_publish_refuses_existing_version(self, memory_store, tmp_path):
        payload = serialize_arrays(128, None, [1, 2], [4.0, -1.5])
        for backend in (memory_store.backend, DirectoryBackend(str(tmp_path))):
            backend.publish("dup", 1, "{}", payload)
            with pytest.raises(InvalidParameterError):
                backend.publish("dup", 1, "{}", payload)

    def test_root_is_none_on_memory_backends(self, memory_store, tmp_path):
        assert memory_store.root is None
        assert SynopsisStore(str(tmp_path)).root == str(tmp_path)
        with pytest.raises(InvalidParameterError):
            SynopsisStore()
        with pytest.raises(InvalidParameterError):
            SynopsisStore(str(tmp_path), backend=MemoryBackend())


class TestCrossBackendEquivalence:
    def test_payload_bytes_and_checksums_are_identical(self, memory_store, tmp_path):
        directory_store = SynopsisStore(str(tmp_path / "store"))
        histogram = _histogram(u=512, k=24)
        in_memory = memory_store.save("same", histogram, algorithm="exact")
        on_disk = directory_store.save("same", histogram, algorithm="exact")
        assert in_memory.checksum_sha256 == on_disk.checksum_sha256
        assert in_memory.payload_bytes == on_disk.payload_bytes
        assert memory_store.backend.read_payload("same", 1) == \
            directory_store.backend.read_payload("same", 1)

    def test_integrity_mismatch_detected_on_memory(self, memory_store):
        memory_store.save("tampered", _histogram())
        backend = memory_store.backend
        metadata_text, payload = backend._entries["tampered"][1]
        backend._entries["tampered"][1] = (
            metadata_text, payload[:-4] + b"\xff\xff\xff\xff"
        )
        with pytest.raises(SynopsisIntegrityError, match="checksum mismatch"):
            _ = memory_store.load("tampered").histogram

    def test_version_pinning_and_refresh_on_memory(self, memory_store):
        server = QueryServer(memory_store)
        first_histogram = _histogram(u=256, seed=31)
        memory_store.save("pin", first_histogram, algorithm="exact")
        first = server.range_sums("pin", [1], [256])
        memory_store.save("pin", _histogram(u=256, seed=32), algorithm="exact")
        # Pinned at v1 until refreshed...
        assert np.array_equal(server.range_sums("pin", [1], [256]), first)
        server.refresh()
        v2 = server.range_sums("pin", [1], [256])
        assert not np.array_equal(v2, first)
        # ...and the explicit version stays addressable after the refresh.
        assert np.array_equal(server.range_sums("pin", [1], [256], version=1), first)


class TestFanoutAcrossBackendsAndExecutors:
    """The acceptance matrix: {serial, parallel} x {directory, memory}."""

    def _populated(self, store: SynopsisStore) -> SynopsisStore:
        rng = np.random.default_rng(77)
        for name in ("web", "orders", "clicks"):
            dense = rng.poisson(25.0, 1024).astype(float)
            store.save(name, WaveletHistogram.from_dense(dense, 32),
                       algorithm="exact")
        return store

    def test_answers_are_bit_identical_everywhere(self, tmp_path):
        names = ["web", "orders", "clicks"]
        workload = WorkloadGenerator(1024, seed=55).generate(4_000, "mixed")
        directory_store = self._populated(SynopsisStore(str(tmp_path / "fan")))
        memory_store = self._populated(SynopsisStore.in_memory())

        executor = ParallelExecutor(max_workers=2)
        try:
            answers = {}
            for store_name, store in (("directory", directory_store),
                                      ("memory", memory_store)):
                for executor_name, profile in (
                    ("serial", RuntimeProfile()),
                    ("parallel", RuntimeProfile(executor=executor)),
                ):
                    service = SynopsisService(store=store, profile=profile,
                                              shard_size=512)
                    answers[(store_name, executor_name)] = \
                        service.query_workload(names, workload)
        finally:
            executor.close()

        reference = answers[("directory", "serial")]
        for combination, result in answers.items():
            for name in names:
                assert np.array_equal(result[name], reference[name]), (
                    f"fan-out diverged for {name} on {combination}"
                )
