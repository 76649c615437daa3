"""Tests for the persistent synopsis store (repro.serving.store)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import TwoLevelSampling
from repro.core.haar import exact_haar_arrays
from repro.core.histogram import WaveletHistogram
from repro.core.topk_coefficients import top_k_from_arrays
from repro.errors import (
    InvalidParameterError,
    SynopsisIntegrityError,
    SynopsisNotFoundError,
)
from repro.mapreduce.hdfs import HDFS
from repro.service import RuntimeProfile
from repro.serving.store import (
    MAGIC,
    META_FILENAME,
    PAYLOAD_FILENAME,
    SynopsisMetadata,
    SynopsisStore,
    deserialize_arrays,
    serialize_arrays,
)


def _histogram(u: int = 128, k: int = 20, seed: int = 5) -> WaveletHistogram:
    rng = np.random.default_rng(seed)
    dense = rng.poisson(12.0, u).astype(float)
    return WaveletHistogram.from_dense(dense, k)


def _arrays(histogram: WaveletHistogram):
    """A histogram as the ``(u, k, indices, values)`` the writer takes."""
    indices = sorted(histogram.coefficients)
    return (histogram.u, histogram.k, np.array(indices, dtype=np.int64),
            np.array([histogram.coefficients[i] for i in indices], dtype=np.float64))


def _serialize(histogram: WaveletHistogram) -> bytes:
    """The WHSYN001 payload of a histogram, through the array writer."""
    return serialize_arrays(*_arrays(histogram))


def _deserialize(payload) -> WaveletHistogram:
    u, k, indices, values = deserialize_arrays(payload)
    return WaveletHistogram(u, dict(zip(indices.tolist(), values.tolist())), k=k)


def _payload_with_header(header: bytes) -> bytes:
    return MAGIC + struct.pack("<I", len(header)) + header


# The sha256 of four payloads as the writer wrote them before it took arrays.
GOLDEN_SHA256 = {
    "build": "9b3cfe4ad16294f636abeff6d5f584c88dfa0ad60739d83ceb15394f12751c0d",
    "checkpoint": "1c0073e22e1c0cdb8ea8362c8b16e1d8b3aaccbe89f011c90ddbf8424c39f07d",
    "empty": "c1c0616c6d2c2c739c3de3bc98c4e54243c0c4bf2e320c217a11c85edc484922",
    "unit": "1046878f5bf6f9903858c91a55b82592db4e0657c74a15bcc7b2e28847420a22",
}


def _golden_synopses():
    """A k = 30 build with negative values, a k = None checkpoint with
    negative counts at u = 2^20, an empty synopsis and one at u = 1."""
    keys = np.arange(1, 1025, dtype=np.int64)
    build = WaveletHistogram.from_coefficients(top_k_from_arrays(
        *exact_haar_arrays(keys, 1100 - keys + keys * 7919 % 97, 1024), 30), 1024, k=30)
    keys = np.append(np.arange(1, 2 ** 20, 8191, dtype=np.int64), 2 ** 20)
    counts = keys % 23 - 11
    return {
        "build": build,
        "checkpoint": (2 ** 20, None, keys[counts != 0], counts[counts != 0]),
        "empty": WaveletHistogram(1024, {}, k=30),
        "unit": WaveletHistogram(1, {1: -3.5}, k=1),
    }


class TestByteFormat:
    def test_serialization_is_deterministic(self):
        histogram = _histogram()
        assert _serialize(histogram) == _serialize(histogram)

    def test_round_trip_is_exact(self):
        histogram = _histogram()
        payload = _serialize(histogram)
        loaded = _deserialize(payload)
        assert loaded.u == histogram.u and loaded.k == histogram.k
        assert loaded.coefficients == histogram.coefficients
        # Reserialising the reload is byte-identical to the original payload.
        assert _serialize(loaded) == payload
        assert serialize_arrays(*deserialize_arrays(payload)) == payload

    def test_rejects_truncated_and_corrupt_payloads(self):
        payload = _serialize(_histogram())
        with pytest.raises(SynopsisIntegrityError):
            deserialize_arrays(payload[:-8])
        with pytest.raises(SynopsisIntegrityError):
            deserialize_arrays(b"NOTMAGIC" + payload[8:])
        with pytest.raises(SynopsisIntegrityError):
            deserialize_arrays(payload + b"\x00")

    def test_malformed_header_fields_raise_integrity_errors(self):
        for header in (b'{"u": 8, "k": "x", "count": 0}',
                       b'{"u": 8, "count": 0}',
                       b'{"u": "?", "k": 1, "count": 0}',
                       b"not json at all.."):
            with pytest.raises(SynopsisIntegrityError):
                deserialize_arrays(_payload_with_header(header))

    @pytest.mark.parametrize("header", [b'{"u": 63, "k": 1, "count": 0}',
                                        b'{"u": -64, "k": 1, "count": 0}',
                                        b'{"u": 64, "k": 1.5, "count": 0}',
                                        b'{"u": 64, "k": 0, "count": 0}'])
    def test_header_fields_no_writer_produces_are_refused(self, header):
        """Regression: these headers parsed (u = 63, k = 1.5 read as 1)."""
        with pytest.raises(SynopsisIntegrityError, match="invalid synopsis header"):
            deserialize_arrays(_payload_with_header(header))

    @pytest.mark.parametrize("field, value", [("u", 63), ("k", 0), ("version", 0),
                                              ("coefficient_count", -1)])
    def test_metadata_fields_no_store_writes_are_refused(self, field, value):
        """Regression: meta.json with these fields loaded as metadata."""
        metadata = SynopsisStore.in_memory().save("n", _histogram(u=64, k=4))
        data = json.loads(metadata.to_json())
        assert SynopsisMetadata.from_json(json.dumps(data)) == metadata
        data[field] = value
        with pytest.raises(SynopsisIntegrityError, match="malformed meta.json"):
            SynopsisMetadata.from_json(json.dumps(data))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_writer_refuses_non_finite_values(self, value):
        """Regression: a NaN coefficient was saved with a valid checksum and
        every range sum over the version answered NaN."""
        store = SynopsisStore.in_memory()
        with pytest.raises(InvalidParameterError, match="finite and non-zero"):
            store.save("n", WaveletHistogram(64, {1: value, 3: 2.0}))
        assert store.versions("n") == []

    @pytest.mark.parametrize("indices, values", [
        ([1, 3], [0.0, 2.0]),   # a zero value
        ([3, 1], [1.0, 2.0]),   # descending
        ([3, 3], [1.0, 2.0]),   # duplicate
        ([0, 3], [1.0, 2.0]),   # below the domain
        ([1, 65], [1.0, 2.0]),  # above the domain
    ])
    def test_writer_refuses_arrays_the_format_cannot_hold(self, indices, values):
        with pytest.raises(InvalidParameterError):
            serialize_arrays(64, 4, indices, values)
        store = SynopsisStore.in_memory()
        with pytest.raises(InvalidParameterError):
            store.save("n", (64, 4, np.array(indices), np.array(values)))
        assert store.versions("n") == []

    def test_none_k_round_trips(self):
        histogram = WaveletHistogram.from_coefficients({1: 2.0}, 8, k=None)
        loaded = _deserialize(_serialize(histogram))
        assert loaded.k is None and loaded.coefficients == {1: 2.0}

    @pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
    def test_payload_bytes_are_pinned(self, case):
        """Both forms the store writes keep the bytes it has always written."""
        synopsis = _golden_synopses()[case]
        forms = [synopsis, _arrays(synopsis)] if isinstance(
            synopsis, WaveletHistogram) else [synopsis]
        store = SynopsisStore.in_memory()
        for form in forms:
            assert store.save(case, form).checksum_sha256 == GOLDEN_SHA256[case]
        payload = serialize_arrays(*forms[-1])
        assert hashlib.sha256(payload).hexdigest() == GOLDEN_SHA256[case]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_array_round_trip(self, data):
        u = 2 ** data.draw(st.integers(0, 20))
        k = data.draw(st.none() | st.integers(1, 2 ** 40))
        indices = sorted(data.draw(st.sets(st.integers(1, u), max_size=40)))
        nonzero = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
        values = data.draw(st.lists(nonzero, min_size=len(indices),
                                    max_size=len(indices)))
        payload = serialize_arrays(u, k, indices, values)
        loaded = deserialize_arrays(payload)
        assert loaded[:2] == (u, k)
        assert loaded[2].tolist() == indices and loaded[3].tolist() == values
        assert serialize_arrays(*loaded) == payload


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
