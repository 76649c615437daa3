"""Property suite: the batch data plane is bit-identical to the records plane.

For every one of the seven algorithms, over hypothesis-generated key streams,
the full ``ExecutionOutcome`` — histogram coefficients *and* merged counter
totals, plus per-round outputs and shuffle bytes — must be exactly equal
across the four combinations {batch, records} x {serial, parallel}.  This is
the contract that lets the runtime default to the columnar fast path: any
divergence in a vectorised mapper, the batched counter charging, the sharded
shuffle routing, the columnar reduce grouping, or the batch readers' RNG
consumption shows up here as a float, count or ordering diff.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BasicSampling,
    HWTopk,
    ImprovedSampling,
    SendCoef,
    SendSketch,
    SendV,
    TwoLevelSampling,
)
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.executor import ParallelExecutor, SerialExecutor
from repro.mapreduce.hdfs import HDFS
from repro.service import RuntimeProfile

U = 64
K = 5
EPSILON = 0.05
SEED = 13

ALGORITHM_FACTORIES = {
    "Send-V": lambda: SendV(U, K),
    "Send-V+combine": lambda: SendV(U, K, use_combiner=True),
    "Send-V+3reducers": lambda: SendV(U, K, num_reducers=3),
    "Send-Coef": lambda: SendCoef(U, K),
    "H-WTopk": lambda: HWTopk(U, K),
    "Send-Sketch": lambda: SendSketch(U, K, bytes_per_level=1024),
    "Basic-S": lambda: BasicSampling(U, K, epsilon=EPSILON),
    "Improved-S": lambda: ImprovedSampling(U, K, epsilon=EPSILON),
    "TwoLevel-S": lambda: TwoLevelSampling(U, K, epsilon=EPSILON),
}

# Key streams over [1, U]: skewed towards repeated small keys (like the Zipf
# workloads) but free to produce any shape, including single-key and
# all-distinct streams.
key_streams = st.lists(
    st.integers(min_value=1, max_value=U), min_size=1, max_size=400
)


@pytest.fixture(scope="module")
def parallel_executor():
    """One process pool shared by the whole module (start-up amortised)."""
    executor = ParallelExecutor(max_workers=2)
    yield executor
    executor.close()


def _run(factory, keys, executor, data_plane):
    hdfs = HDFS()
    hdfs.create_file("/input", np.asarray(keys, dtype=np.int64))
    cluster = paper_cluster(split_size_bytes=max(4, (len(keys) * 4) // 4))
    profile = RuntimeProfile(cluster=cluster, seed=SEED, executor=executor,
                             data_plane=data_plane)
    return factory().run(hdfs, "/input", profile=profile)


def _assert_identical(reference, other, label):
    assert other.histogram.coefficients == reference.histogram.coefficients, label
    assert other.counters.as_dict() == reference.counters.as_dict(), label
    assert other.num_rounds == reference.num_rounds, label
    for reference_round, other_round in zip(reference.rounds, other.rounds):
        assert other_round.output == reference_round.output, label
        assert other_round.shuffle_bytes == reference_round.shuffle_bytes, label


@pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=key_streams)
def test_planes_and_executors_are_bit_identical(name, parallel_executor, keys):
    factory = ALGORITHM_FACTORIES[name]
    reference = _run(factory, keys, SerialExecutor(), "records")
    for data_plane in ("batch", "records"):
        for executor_name, executor in (("serial", SerialExecutor()),
                                        ("parallel", parallel_executor)):
            if data_plane == "records" and executor_name == "serial":
                continue  # that is the reference itself
            outcome = _run(factory, keys, executor, data_plane)
            _assert_identical(reference, outcome,
                              f"{name} diverged on {data_plane}/{executor_name}")


def test_non_batch_mapper_falls_back_to_records_path():
    """A plain Mapper job runs on the batch plane via the reference loop."""
    from repro.mapreduce.api import Mapper, Reducer
    from repro.mapreduce.job import MapReduceJob
    from repro.mapreduce.runtime import JobRunner

    class PlainMapper(Mapper):
        def map(self, record, context):
            context.emit(record, 1)

    class SumReducer(Reducer):
        def reduce(self, key, values, context):
            context.emit(key, sum(values))

    results = {}
    for data_plane in ("batch", "records"):
        hdfs = HDFS()
        hdfs.create_file("/input", np.arange(1, 101) % 7 + 1)
        runner = JobRunner(hdfs, cluster=paper_cluster(split_size_bytes=100),
                           data_plane=data_plane)
        job = MapReduceJob(name="wc", input_path="/input",
                           mapper_class=PlainMapper, reducer_class=SumReducer)
        results[data_plane] = runner.run(job)
    assert results["batch"].output == results["records"].output
    assert (results["batch"].counters.as_dict()
            == results["records"].counters.as_dict())


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=key_streams)
def test_send_coef_equals_send_v_bit_for_bit(parallel_executor, keys):
    """Send-Coef sums the splits' exact numerators, Send-V transforms the
    summed counts: the same integers divided once, so the same bits."""
    for data_plane in ("batch", "records"):
        for executor in (SerialExecutor(), parallel_executor):
            send_v = _run(ALGORITHM_FACTORIES["Send-V"], keys, executor, data_plane)
            send_coef = _run(ALGORITHM_FACTORIES["Send-Coef"], keys, executor,
                             data_plane)
            assert (list(send_coef.histogram.coefficients.items())
                    == list(send_v.histogram.coefficients.items()))
