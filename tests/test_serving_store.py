"""Tests for the persistent synopsis store (repro.serving.store)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.algorithms import TwoLevelSampling
from repro.core.histogram import WaveletHistogram
from repro.errors import (
    InvalidParameterError,
    SynopsisIntegrityError,
    SynopsisNotFoundError,
)
from repro.mapreduce.hdfs import HDFS
from repro.service import RuntimeProfile
from repro.serving.store import (
    META_FILENAME,
    PAYLOAD_FILENAME,
    SynopsisStore,
    deserialize_histogram,
    serialize_histogram,
)


def _histogram(u: int = 128, k: int = 20, seed: int = 5) -> WaveletHistogram:
    rng = np.random.default_rng(seed)
    dense = rng.poisson(12.0, u).astype(float)
    return WaveletHistogram.from_dense(dense, k)


class TestByteFormat:
    def test_serialization_is_deterministic(self):
        histogram = _histogram()
        assert serialize_histogram(histogram) == serialize_histogram(histogram)

    def test_round_trip_is_exact(self):
        histogram = _histogram()
        payload = serialize_histogram(histogram)
        loaded = deserialize_histogram(payload)
        assert loaded.u == histogram.u and loaded.k == histogram.k
        assert loaded.coefficients == histogram.coefficients
        # Reserialising the reload is byte-identical to the original payload.
        assert serialize_histogram(loaded) == payload

    def test_rejects_truncated_and_corrupt_payloads(self):
        payload = serialize_histogram(_histogram())
        with pytest.raises(SynopsisIntegrityError):
            deserialize_histogram(payload[:-8])
        with pytest.raises(SynopsisIntegrityError):
            deserialize_histogram(b"NOTMAGIC" + payload[8:])
        with pytest.raises(SynopsisIntegrityError):
            deserialize_histogram(payload + b"\x00")

    def test_malformed_header_fields_raise_integrity_errors(self):
        import struct

        from repro.serving.store import MAGIC

        def payload_with_header(header: bytes) -> bytes:
            return MAGIC + struct.pack("<I", len(header)) + header

        for header in (b'{"u": 8, "k": "x", "count": 0}',
                       b'{"u": 8, "count": 0}',
                       b'{"u": "?", "k": 1, "count": 0}',
                       b"not json at all.."):
            with pytest.raises(SynopsisIntegrityError):
                deserialize_histogram(payload_with_header(header))

    def test_none_k_round_trips(self):
        histogram = WaveletHistogram.from_coefficients({1: 2.0}, 8, k=None)
        loaded = deserialize_histogram(serialize_histogram(histogram))
        assert loaded.k is None and loaded.coefficients == {1: 2.0}


class TestStoreRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        store = SynopsisStore(str(tmp_path / "store"))
        histogram = _histogram()
        # A nested build dict, as AlgorithmResult.publish writes one.
        build = {"communication_bytes": 123.0, "simulated_time_s": 1.5,
                 "rounds": 1, "counters": {"map.records": 400.0, "shuffle.bytes": 96.0},
                 "dataset": "orders"}
        metadata = store.save("orders", histogram, algorithm="Send-V", seed=3,
                              build=build)
        assert metadata.version == 1
        assert metadata.coefficient_count == len(histogram)
        assert metadata.build["communication_bytes"] == 123.0
        loaded = store.load("orders")
        assert loaded.metadata == metadata
        assert loaded.histogram.coefficients == histogram.coefficients
        with open(os.path.join(loaded.directory, PAYLOAD_FILENAME), "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == metadata.checksum_sha256
        # meta.json keeps the text the store has always written: the JSON of
        # dataclasses.asdict, nested dicts included.
        with open(os.path.join(loaded.directory, META_FILENAME), encoding="utf-8") as handle:
            assert handle.read() == json.dumps(
                dataclasses.asdict(metadata), sort_keys=True, indent=2) + "\n"

    def test_versions_are_append_only(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        first, second = _histogram(seed=1), _histogram(seed=2)
        store.save("d", first, algorithm="A")
        metadata = store.save("d", second, algorithm="B")
        assert metadata.version == 2
        assert store.versions("d") == [1, 2]
        assert store.latest_version("d") == 2
        assert store.load("d").histogram.coefficients == second.coefficients
        assert store.load("d", version=1).histogram.coefficients == first.coefficients

    def test_loading_is_lazy_until_first_access(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        store.save("lazy", _histogram())
        loaded = store.load("lazy")
        assert not loaded.loaded
        # Removing the payload after load() proves nothing was read yet...
        os.remove(os.path.join(loaded.directory, PAYLOAD_FILENAME))
        with pytest.raises(SynopsisNotFoundError):
            _ = loaded.histogram
        # ...and a fresh handle with the payload present faults it in once.
        store.save("lazy2", _histogram())
        handle = store.load("lazy2")
        _ = handle.histogram
        assert handle.loaded

    def test_checksum_mismatch_is_detected(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        store.save("tampered", _histogram())
        loaded = store.load("tampered")
        path = os.path.join(loaded.directory, PAYLOAD_FILENAME)
        with open(path, "r+b") as handle:
            handle.seek(-4, os.SEEK_END)
            handle.write(b"\xff\xff\xff\xff")
        with pytest.raises(SynopsisIntegrityError):
            _ = loaded.histogram

    def test_unknown_name_and_version(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        with pytest.raises(SynopsisNotFoundError):
            store.load("missing")
        store.save("present", _histogram())
        with pytest.raises(SynopsisNotFoundError):
            store.load("present", version=9)

    def test_rejects_bad_names(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        for bad in ("", "../escape", "a/b", ".hidden", "spa ce"):
            with pytest.raises(InvalidParameterError):
                store.save(bad, _histogram())

    def test_catalog_listing(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        store.save("b-synopsis", _histogram(), algorithm="B")
        store.save("a-synopsis", _histogram(), algorithm="A")
        store.save("a-synopsis", _histogram(seed=9), algorithm="A")
        assert store.names() == ["a-synopsis", "b-synopsis"]
        entries = {metadata.name: metadata for metadata in store.entries()}
        assert entries["a-synopsis"].version == 2
        # The per-version metadata is the catalog: no summary file is derived.
        assert not os.path.exists(os.path.join(store.root, "catalog.json"))

    def test_catalog_failure_does_not_fail_the_save(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        # A stray directory named like a file at the store root (here the
        # catalog.json summary older releases wrote) must not fail a save.
        os.makedirs(os.path.join(store.root, "catalog.json"))
        metadata = store.save("resilient", _histogram())
        assert metadata.version == 1
        assert store.load("resilient").histogram.coefficients

    def test_corrupt_sibling_metadata_does_not_brick_saves(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        store.save("a", _histogram())
        meta_path = os.path.join(store.root, "a", "v00001", "meta.json")
        with open(meta_path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        # Saving an unrelated name still publishes (a save reads no sibling
        # metadata), and loading the corrupt entry raises the contract error.
        assert store.save("b", _histogram()).version == 1
        assert store.load("b").histogram.coefficients
        with pytest.raises(SynopsisIntegrityError):
            store.load("a")

    def test_engine_over_stored_synopsis(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        histogram = _histogram()
        store.save("served", histogram)
        engine = store.load("served").engine()
        assert engine.range_sum_many([1], [histogram.u])[0] == pytest.approx(
            histogram.range_sum_scalar(1, histogram.u), abs=1e-9
        )

    def test_one_engine_per_handle_until_release(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        store.save("served", _histogram())
        handle = store.load("served")
        assert handle.peek_engine() is None  # peeking builds nothing
        engine = handle.engine()
        assert handle.engine() is engine
        assert handle.peek_engine() is engine
        assert handle.release() > 0
        assert handle.peek_engine() is None
        assert handle.engine() is not engine  # faults back in after release


class TestAlgorithmRunEmitsStoreEntries:
    def test_run_with_store_persists_and_reports(self, tmp_path,
                                                 hdfs_with_small_dataset,
                                                 small_dataset, small_cluster):
        store = SynopsisStore(str(tmp_path))
        algorithm = TwoLevelSampling(small_dataset.u, 16, epsilon=0.02)
        profile = RuntimeProfile(cluster=small_cluster, seed=11)
        result = algorithm.run(hdfs_with_small_dataset, "/data/input", profile=profile)
        result.publish(store, seed=profile.seed)
        entry = result.details["store_entry"]
        assert entry["name"] == "TwoLevel-S" and entry["version"] == 1
        metadata = store.load("TwoLevel-S").metadata
        assert metadata.algorithm == "TwoLevel-S"
        assert metadata.seed == 11
        assert metadata.u == small_dataset.u and metadata.k == 16
        assert metadata.build["rounds"] == result.num_rounds
        assert metadata.build["communication_bytes"] == result.communication_bytes
        assert metadata.build["counters"]  # build counters travel with the synopsis
        stored = store.load("TwoLevel-S").histogram
        assert stored.coefficients == result.histogram.coefficients

    def test_run_with_store_name_override(self, tmp_path, hdfs_with_small_dataset,
                                          small_dataset, small_cluster):
        store = SynopsisStore(str(tmp_path))
        algorithm = TwoLevelSampling(small_dataset.u, 8, epsilon=0.02)
        result = algorithm.run(hdfs_with_small_dataset, "/data/input",
                               profile=RuntimeProfile(cluster=small_cluster))
        result.publish(store, name="catalog-entry")
        assert result.details["store_entry"]["name"] == "catalog-entry"
        assert store.names() == ["catalog-entry"]


class TestCrossProcessServing:
    def test_persisted_synopsis_serves_in_a_fresh_process(self, tmp_path):
        store = SynopsisStore(str(tmp_path))
        histogram = _histogram(u=512, k=32)
        store.save("xproc", histogram, algorithm="exact")
        los, his = [1, 17, 100], [512, 40, 400]
        expected = histogram.range_sum_many(los, his)

        script = (
            "import json, sys, numpy as np\n"
            "from repro.serving.store import SynopsisStore\n"
            "from repro.serving.server import QueryServer\n"
            "server = QueryServer(SynopsisStore(sys.argv[1]))\n"
            "result = server.range_sums('xproc', [1, 17, 100], [512, 40, 400])\n"
            "print(json.dumps(list(result)))\n"
        )
        environment = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        environment["PYTHONPATH"] = src + os.pathsep + environment.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", script, store.root],
            capture_output=True, text=True, env=environment, check=True,
        )
        answers = np.array(json.loads(completed.stdout))
        np.testing.assert_allclose(answers, expected, rtol=0.0, atol=1e-9)
