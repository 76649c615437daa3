"""Tests for job configuration, distributed cache and state store (repro.mapreduce)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DistributedCacheError, JobConfigurationError
from repro.mapreduce.api import Mapper, Reducer
from repro.mapreduce.cluster import ClusterSpec, MachineSpec
from repro.mapreduce.executor import ParallelExecutor, SerialExecutor
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import DistributedCache, JobConfiguration, MapReduceJob, hash_partitioner
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.serialization import DEFAULT_SERIALIZATION
from repro.mapreduce.state import StateStore


class TestJobConfiguration:
    def test_set_get_default(self):
        conf = JobConfiguration()
        conf.set("a", 1)
        assert conf.get("a") == 1
        assert conf.get("missing", 7) == 7
        assert "a" in conf and "missing" not in conf
        assert len(conf) == 1

    def test_require_raises_when_missing(self):
        conf = JobConfiguration({"present": 1})
        assert conf.require("present") == 1
        with pytest.raises(JobConfigurationError):
            conf.require("absent")

    def test_as_dict_returns_copy(self):
        conf = JobConfiguration({"a": 1})
        snapshot = conf.as_dict()
        snapshot["a"] = 2
        assert conf.get("a") == 1

    def test_serialized_size_counts_keys_and_values(self):
        conf = JobConfiguration({"ab": 1, "cd": 2.0})
        # 2 + 4 (int) + 2 + 8 (float) = 16 bytes.
        assert conf.serialized_size_bytes() == 16

    def test_serialized_size_handles_odd_values(self):
        conf = JobConfiguration({"x": object()})
        assert conf.serialized_size_bytes() > 0


class TestDistributedCache:
    def test_add_get_and_sizes(self):
        cache = DistributedCache()
        cache.add("candidates", [1, 2, 3])
        assert cache.get("candidates") == [1, 2, 3]
        assert cache.size_bytes("candidates") == 12
        assert cache.total_size_bytes() == 12
        assert "candidates" in cache and len(cache) == 1

    def test_explicit_size_overrides(self):
        cache = DistributedCache()
        cache.add("blob", object(), size_bytes=100)
        assert cache.size_bytes("blob") == 100

    def test_missing_entry_raises(self):
        cache = DistributedCache()
        with pytest.raises(DistributedCacheError):
            cache.get("nope")
        with pytest.raises(DistributedCacheError):
            cache.size_bytes("nope")


class TestMapReduceJobValidation:
    def test_requires_reducers_and_classes(self):
        with pytest.raises(JobConfigurationError):
            MapReduceJob(name="j", input_path="/x", mapper_class=Mapper,
                         reducer_class=Reducer, num_reducers=0)
        with pytest.raises(JobConfigurationError):
            MapReduceJob(name="j", input_path="/x", mapper_class=None, reducer_class=Reducer)

    def test_hash_partitioner_range(self):
        for key in (0, 1, "abc", 12345):
            assert 0 <= hash_partitioner(key, 4) < 4


class TestStateStore:
    def test_save_load_roundtrip(self):
        store = StateStore()
        store.save("split", 3, {"remaining": {1: 2.0}})
        assert store.load("split", 3) == {"remaining": {1: 2.0}}
        assert store.exists("split", 3)
        assert not store.exists("split", 4)

    def test_load_default(self):
        store = StateStore()
        assert store.load("reducer", 0, default="fallback") == "fallback"

    def test_overwrite_replaces_previous_blob(self):
        store = StateStore()
        store.save("split", 1, "first")
        store.save("split", 1, "second")
        assert store.load("split", 1) == "second"

    def test_byte_accounting(self):
        store = StateStore()
        store.save("split", 1, None, size_bytes=120)
        assert store.bytes_written == 120

    def test_clear(self):
        store = StateStore()
        store.save("split", 1, "x")
        store.clear()
        assert len(store) == 0
        assert store.bytes_written == 0

    def test_keys_listing(self):
        store = StateStore()
        store.save("split", 2, "a")
        store.save("reducer", 0, "b")
        assert store.keys() == [("reducer", 0), ("split", 2)]

    def test_unsizable_payload_raises(self):
        store = StateStore()
        with pytest.raises(TypeError):
            store.save("split", 1, object())
        with pytest.raises(TypeError):
            store.save("reducer", 0, {"reported": {3: {1, 2}}})
        assert store.bytes_written == 0
        store.save("split", 2, object(), size_bytes=8)
        with pytest.raises(TypeError):
            store.load("split", 2)

    def test_save_freezes_arrays(self):
        store = StateStore()
        indices, values = np.arange(4), np.linspace(0.0, 1.0, 4)
        store.save("split", 1, {"remaining": (indices, values)})
        assert not indices.flags.writeable and not values.flags.writeable
        loaded_indices, _ = store.load("split", 1)["remaining"]
        assert loaded_indices is indices


class TestArrayStateSizing:
    def test_array_charge_equals_the_dict_it_replaces(self):
        indices = np.array([3, 9, 17, 40], dtype=np.int64)
        values = np.array([0.5, -2.0, 7.25, 1e-3])
        as_dict = {"remaining": dict(zip(indices.tolist(), values.tolist()))}
        as_arrays = {"remaining": (indices, values)}
        model = DEFAULT_SERIALIZATION
        assert model.value_size(as_arrays) == model.value_size(as_dict) == 9 + 4 * 12
        assert model.value_size(np.zeros(5, dtype=np.int32)) == 5 * model.int_bytes
        assert model.value_size(np.zeros(5, dtype=bool)) == 5 * model.int_bytes
        assert model.value_size(np.zeros((2, 3))) == 6 * model.double_bytes
        assert model.value_size(np.empty(0, dtype=np.int64)) == 0
        with pytest.raises(TypeError):
            model.value_size(np.array(["a", "b"]))


# Large enough to ship out of band under the zero-copy plane.
STATE_SIZE = 1024


class ArrayStateMapper(Mapper):
    """Saves one large and one small array as this split's state."""

    def close(self, context):
        context.save_state({"big": np.arange(STATE_SIZE, dtype=np.int64),
                            "small": np.ones(4)})
        context.emit(context.split_id, 1)


class WritingStateMapper(Mapper):
    """Writes into the state array named by the job configuration."""

    def close(self, context):
        state = context.load_state()
        state[context.configuration.require("field")][0] = 7
        context.emit(context.split_id, 1)


class SumValuesReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


def _state_jobs(field="big"):
    save = MapReduceJob(name="save", input_path="/state",
                        mapper_class=ArrayStateMapper, reducer_class=SumValuesReducer)
    write = MapReduceJob(name="write", input_path="/state",
                         mapper_class=WritingStateMapper, reducer_class=SumValuesReducer,
                         configuration=JobConfiguration({"field": field}),
                         read_input=False)
    return save, write


@pytest.fixture()
def state_runner_parts():
    hdfs = HDFS(datanodes=["m0", "m1"])
    hdfs.create_file("/state", np.arange(1, 41), record_size_bytes=4)
    cluster = ClusterSpec(machines=[MachineSpec(f"m{i}") for i in range(2)],
                          split_size_bytes=80)
    return hdfs, cluster


class TestCopyFreeState:
    """Job state passes by reference, read-only, under every executor."""

    @pytest.mark.parametrize("zero_copy", [True, False], ids=["zero-copy", "pickled"])
    @pytest.mark.parametrize("executor_name", ["serial", "parallel"])
    @pytest.mark.parametrize("field", ["big", "small"])
    def test_writing_into_loaded_state_raises(self, state_runner_parts, executor_name,
                                              zero_copy, field):
        hdfs, cluster = state_runner_parts
        executor = (SerialExecutor() if executor_name == "serial"
                    else ParallelExecutor(max_workers=2))
        with executor:
            runner = JobRunner(hdfs, cluster=cluster, executor=executor,
                               zero_copy=zero_copy)
            save, write = _state_jobs(field)
            splits = hdfs.splits("/state", cluster.split_size_bytes)
            runner.run(save, splits=splits)
            with pytest.raises(ValueError, match="read-only"):
                runner.run(write, splits=splits)
        stored = runner.state_store.peek("split", 0)
        assert stored["big"][0] == 0 and stored["small"][0] == 1.0

    def test_serial_snapshot_shares_memory_with_the_stored_blob(self, state_runner_parts):
        hdfs, cluster = state_runner_parts
        runner = JobRunner(hdfs, cluster=cluster, executor=SerialExecutor())
        save, write = _state_jobs()
        splits = hdfs.splits("/state", cluster.split_size_bytes)
        runner.run(save, splits=splits)
        execution = runner.begin_round(write, splits=splits)
        for spec in execution.map_specs:
            key = ("split", spec.split.split_id)
            shipped, stored = spec.state_snapshot[key], runner.state_store.peek(*key)
            assert shipped is stored
            assert np.shares_memory(shipped["big"], stored["big"])
            assert not stored["big"].flags.writeable
