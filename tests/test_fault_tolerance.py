"""Fault-tolerance suite (PR 8): chaos runs must be bit-identical to clean runs.

The hard invariant under test: a run with injected transient faults and
worker kills — retried through :class:`~repro.mapreduce.faults.RetryPolicy` —
produces exactly the same coefficients, counters, per-round outputs and
stored checksums as a fault-free run, across executors, data planes and the
cluster scheduler.  Faults change wall-clock time and the ``faults.*``
telemetry, never results.

Also covered: the fault injector's determinism, pool rebuild after worker
death, permanent-failure isolation in scheduled batches (one failing plan
must not take its siblings down), and the serving layer's quarantine /
intact-ancestor fallback.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pytest

from repro.algorithms import SendCoef, SendV, TwoLevelSampling
from repro.errors import (
    InvalidParameterError,
    SynopsisIntegrityError,
    TaskPermanentError,
    TaskTransientError,
)
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.executor import (
    FunctionTaskSpec,
    ParallelExecutor,
    SerialExecutor,
)
from repro.mapreduce.faults import (
    KIND_TRANSIENT,
    KIND_WORKER_KILL,
    FaultInjector,
    RetryPolicy,
)
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.serialization import (
    OOB_THRESHOLD_BYTES,
    live_shipment_segments,
)
from repro.serving.server import QueryServer
from repro.serving.store import SynopsisStore
from repro.service import RuntimeProfile, SynopsisService
from repro.telemetry import get_telemetry

U = 64
K = 10
SEED = 7
EPSILON = 0.05

# rate=1.0 faults every eligible attempt (draws are in [0, 1), always below
# the rate), making the forced-failure tests fully deterministic.
ALWAYS = 1.0


def _sleep_then_echo(payload):
    """Module-level task body: hold a worker for a while, return the index."""
    index, duration_s, _shared = payload
    time.sleep(duration_s)
    return index


def _cluster(dataset):
    return paper_cluster(split_size_bytes=max(4, dataset.size_bytes // 6))


def _run(algorithm_factory, dataset, executor, data_plane="batch"):
    hdfs = HDFS()
    dataset.to_hdfs(hdfs, "/data/input")
    profile = RuntimeProfile(cluster=_cluster(dataset), seed=SEED,
                             executor=executor, data_plane=data_plane)
    return algorithm_factory().run(hdfs, "/data/input", profile=profile)


def _assert_identical(clean, faulted):
    assert clean.histogram.coefficients == faulted.histogram.coefficients
    assert clean.counters.as_dict() == faulted.counters.as_dict()
    assert clean.num_rounds == faulted.num_rounds
    for clean_round, faulted_round in zip(clean.rounds, faulted.rounds):
        assert clean_round.output == faulted_round.output
        assert clean_round.shuffle_bytes == faulted_round.shuffle_bytes
    assert clean.communication_bytes == faulted.communication_bytes
    assert clean.simulated_time_s == faulted.simulated_time_s


class TestRetryPolicyAndInjector:
    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.1,
                             backoff_multiplier=2.0, backoff_max_s=0.3)
        assert list(policy.schedule()) == [0.1, 0.2, 0.3, 0.3]
        assert policy.backoff_s(1) == 0.1
        assert policy.backoff_s(4) == 0.3

    def test_zero_base_means_no_sleeping(self):
        policy = RetryPolicy(max_attempts=3)
        assert list(policy.schedule()) == [0.0, 0.0]

    def test_policy_validation(self):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(backoff_base_s=-1.0)

    def test_injector_validation(self):
        with pytest.raises(InvalidParameterError):
            FaultInjector(rate=1.5)
        with pytest.raises(InvalidParameterError):
            FaultInjector(rate=0.5, kill_fraction=2.0)
        with pytest.raises(InvalidParameterError):
            FaultInjector(rate=0.5, max_faults_per_task=-1)

    def test_draw_is_deterministic_per_task_and_attempt(self):
        injector = FaultInjector(rate=0.5, seed=9, max_faults_per_task=1)
        spec = FunctionTaskSpec(task_id=3, function=abs, payload=-1)
        first = injector.draw(spec, 1)
        assert all(injector.draw(spec, 1) == first for _ in range(10))
        # Attempts past the per-task budget never fault: retries terminate.
        assert injector.draw(spec, 2) is None

    def test_kill_fraction_splits_fault_kinds(self):
        all_kills = FaultInjector(rate=ALWAYS, seed=1, kill_fraction=1.0)
        no_kills = FaultInjector(rate=ALWAYS, seed=1, kill_fraction=0.0)
        spec = FunctionTaskSpec(task_id=0, function=abs, payload=-1)
        assert all_kills.draw(spec, 1) == KIND_WORKER_KILL
        assert no_kills.draw(spec, 1) == KIND_TRANSIENT

    def test_selector_limits_the_blast_radius(self):
        injector = FaultInjector(rate=ALWAYS, seed=2,
                                 selector=lambda spec: spec.task_id == 1)
        hit = FunctionTaskSpec(task_id=1, function=abs, payload=-1)
        miss = FunctionTaskSpec(task_id=2, function=abs, payload=-1)
        assert injector.draw(hit, 1) == KIND_TRANSIENT
        assert injector.draw(miss, 1) is None


class TestPermanentFailure:
    def test_permanent_error_reports_attempts_and_task_id(self):
        executor = SerialExecutor(
            retry_policy=RetryPolicy(max_attempts=2),
            fault_injector=FaultInjector(rate=ALWAYS, seed=4,
                                         max_faults_per_task=10),
        )
        spec = FunctionTaskSpec(task_id=5, function=abs, payload=-1)
        with pytest.raises(TaskPermanentError) as excinfo:
            executor.run_tasks([spec], slots=1)
        error = excinfo.value
        assert error.attempts == 2
        assert error.task_id == 5
        assert "after 2 attempt(s)" in str(error)
        assert "task 5" in str(error)
        # The executor survives the failure for subsequent clean work.
        clean = SerialExecutor()
        results = clean.run_tasks(
            [FunctionTaskSpec(task_id=0, function=abs, payload=-3)], slots=1)
        assert results[0].pairs[0][1] == 3

    def test_faults_within_budget_complete_with_retries_counted(self):
        executor = SerialExecutor(
            retry_policy=RetryPolicy(max_attempts=3),
            fault_injector=FaultInjector(rate=ALWAYS, seed=4,
                                         max_faults_per_task=1),
        )
        before = get_telemetry().metrics.counter_value(
            "repro_task_retries_total", phase="function", reason="transient")
        specs = [FunctionTaskSpec(task_id=i, function=abs, payload=-i)
                 for i in range(4)]
        results = executor.run_tasks(specs, slots=4)
        assert [result.pairs[0][1] for result in results] == [0, 1, 2, 3]
        after = get_telemetry().metrics.counter_value(
            "repro_task_retries_total", phase="function", reason="transient")
        assert after - before == 4  # every task faulted exactly once


class TestFaultEquivalence:
    """Injected transient faults never change results."""

    ALGORITHMS = {
        "send-v": lambda: SendV(U, K),
        "twolevel-s": lambda: TwoLevelSampling(U, K, epsilon=EPSILON),
    }

    @pytest.fixture(scope="class")
    def clean_results(self, tiny_dataset):
        return {name: _run(factory, tiny_dataset, SerialExecutor())
                for name, factory in self.ALGORITHMS.items()}

    @pytest.mark.parametrize("data_plane", ["batch", "records"])
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_serial_with_faults_matches_clean(self, name, data_plane,
                                              tiny_dataset, clean_results):
        executor = SerialExecutor(
            fault_injector=FaultInjector(rate=0.4, seed=13))
        before = get_telemetry().metrics.counter_value(
            "repro_task_retries_total", phase="map", reason="transient")
        faulted = _run(self.ALGORITHMS[name], tiny_dataset, executor,
                       data_plane)
        after = get_telemetry().metrics.counter_value(
            "repro_task_retries_total", phase="map", reason="transient")
        assert after > before, "no fault fired; the test proves nothing"
        _assert_identical(clean_results[name], faulted)

    @pytest.mark.parametrize("data_plane", ["batch", "records"])
    def test_parallel_with_faults_matches_clean(self, data_plane,
                                                tiny_dataset, clean_results):
        executor = ParallelExecutor(
            max_workers=2,
            fault_injector=FaultInjector(rate=0.4, seed=13))
        try:
            faulted = _run(self.ALGORITHMS["send-v"], tiny_dataset, executor,
                           data_plane)
        finally:
            executor.close()
        _assert_identical(clean_results["send-v"], faulted)

    def test_scheduled_batch_with_faults_matches_clean_builds(self,
                                                              tiny_dataset):
        algorithms = [SendV(U, K), SendCoef(U, K)]

        clean_service = SynopsisService(
            profile=RuntimeProfile(cluster=_cluster(tiny_dataset), seed=SEED))
        clean = [clean_service.build(algorithm, tiny_dataset)
                 for algorithm in algorithms]

        executor = SerialExecutor(
            fault_injector=FaultInjector(rate=0.4, seed=21))
        faulted_service = SynopsisService(
            profile=RuntimeProfile(cluster=_cluster(tiny_dataset), seed=SEED,
                                   executor=executor, concurrent_jobs=2))
        faulted = faulted_service.build_many(
            [(algorithm, tiny_dataset) for algorithm in algorithms])

        for clean_report, faulted_report in zip(clean, faulted):
            assert faulted_report.ok
            assert faulted_report.checksum_sha256 == clean_report.checksum_sha256
            assert (faulted_report.result.histogram.coefficients
                    == clean_report.result.histogram.coefficients)


class TestWorkerKillRecovery:
    def test_pool_rebuilds_after_injected_kill_and_results_match(self,
                                                                 tiny_dataset):
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
            # The rebuilt pool keeps serving clean work.
            results = executor.run_tasks(
                [FunctionTaskSpec(task_id=0, function=abs, payload=-9)],
                slots=1)
            assert results[0].pairs[0][1] == 9
        finally:
            executor.close()


class TestInnocentBystanders:
    """A worker kill breaks the whole pool, failing every in-flight task; only
    the task whose attempt carried the kill is charged a retry."""

    @pytest.mark.parametrize("path", ["run_tasks", "submit_task"])
    def test_only_the_killed_task_is_charged(self, path):
        shared = np.arange(OOB_THRESHOLD_BYTES, dtype=np.int64)
        specs = [FunctionTaskSpec(task_id=index, function=_sleep_then_echo,
                                  payload=(index, 0.3, shared), zero_copy=True)
                 for index in range(4)]
        executor = ParallelExecutor(
            max_workers=2,
            retry_policy=RetryPolicy(max_attempts=2),
            fault_injector=FaultInjector(
                rate=ALWAYS, seed=1, kill_fraction=1.0, max_faults_per_task=1,
                selector=lambda spec: spec.task_id == 0))
        metrics = get_telemetry().metrics

        def retries():
            return metrics.counter_value("repro_task_retries_total",
                                         phase="function", reason="worker-died")

        retries_before = retries()
        rebuilds_before = metrics.counter_value("repro_pool_rebuilds_total")
        try:
            if path == "run_tasks":
                results = executor.run_tasks(specs, slots=2)
            else:
                handles = [executor.submit_task(spec) for spec in specs]
                pending = list(handles)
                while pending:
                    done = executor.wait_any(pending)
                    pending = [handle for handle in pending
                               if handle not in done]
                results = [handle.result() for handle in handles]
            assert [result.pairs[0][1] for result in results] == [0, 1, 2, 3]
            assert retries() - retries_before == 1
            assert (metrics.counter_value("repro_pool_rebuilds_total")
                    - rebuilds_before == 1)
            assert live_shipment_segments() == ()
        finally:
            executor.close()


class TestJobFailureIsolation:
    @pytest.mark.parametrize("concurrent_jobs", [1, 2])
    def test_one_failed_job_leaves_siblings_bit_identical(self, tiny_dataset,
                                                          concurrent_jobs):
        # Target only Send-V's mapper: its retry budget exhausts and the job
        # fails permanently, while Send-Coef shares the scheduler batch and a
        # later request still builds, whatever the admission bound.
        injector = FaultInjector(
            rate=ALWAYS, seed=5, max_faults_per_task=10,
            selector=lambda spec: "SendV" in getattr(
                spec, "mapper_class", type(None)).__name__)
        executor = SerialExecutor(
            retry_policy=RetryPolicy(max_attempts=2), fault_injector=injector)
        service = SynopsisService(
            profile=RuntimeProfile(cluster=_cluster(tiny_dataset), seed=SEED,
                                   executor=executor,
                                   concurrent_jobs=concurrent_jobs))
        reports = service.build_many([
            (SendV(U, K), tiny_dataset, "victim"),
            (SendCoef(U, K), tiny_dataset, "sibling"),
            (TwoLevelSampling(U, K, epsilon=EPSILON), tiny_dataset, "later"),
        ])

        victim, sibling, later = reports
        assert not victim.ok
        assert victim.metadata is None and victim.result is None
        assert "permanently" in victim.error
        assert sibling.ok and later.ok

        stats = victim.scheduler_stats
        assert stats is not None
        assert stats.failed_jobs == 1
        assert list(stats.job_errors) == [0]
        assert "permanently" in stats.job_errors[0]
        assert "failed-jobs=1" in stats.describe()

        # Nothing of the failed build was published; the others were.
        assert service.store.versions("victim") == []
        assert service.store.versions("sibling") == [1]
        assert service.store.versions("later") == [1]

        # The others are bit-identical to solo clean builds.
        solo_service = SynopsisService(
            profile=RuntimeProfile(cluster=_cluster(tiny_dataset), seed=SEED))
        for report, algorithm in ((sibling, SendCoef(U, K)),
                                  (later, TwoLevelSampling(U, K, epsilon=EPSILON))):
            solo = solo_service.build(algorithm, tiny_dataset, name=report.name)
            assert report.checksum_sha256 == solo.checksum_sha256
            assert (report.result.histogram.coefficients
                    == solo.result.histogram.coefficients)

    @pytest.mark.parametrize("concurrent_jobs", [1, 2])
    def test_experiment_sweep_fails_loudly_on_permanent_failure(
            self, tiny_dataset, concurrent_jobs):
        """One failure contract at any concurrency: the sweep names the
        algorithm that failed, even when a sibling was built before it."""
        from repro.errors import SchedulerError
        from repro.experiments.runner import run_algorithms

        injector = FaultInjector(
            rate=ALWAYS, seed=5, max_faults_per_task=10,
            selector=lambda spec: "SendV" in getattr(
                spec, "mapper_class", type(None)).__name__)
        executor = SerialExecutor(
            retry_policy=RetryPolicy(max_attempts=2), fault_injector=injector)
        profile = RuntimeProfile(cluster=_cluster(tiny_dataset), seed=SEED,
                                 executor=executor,
                                 concurrent_jobs=concurrent_jobs)
        with pytest.raises(SchedulerError,
                           match="'Send-V' failed in the scheduled batch"):
            run_algorithms(tiny_dataset, [SendCoef(U, K), SendV(U, K)],
                           profile=profile)


class TestQuarantineFallback:
    @pytest.fixture()
    def corrupt_store_root(self, tmp_path, tiny_dataset):
        """A disk store with two versions of one synopsis, v2 corrupted."""
        root = str(tmp_path / "store")
        store = SynopsisStore(root)
        histogram = tiny_dataset.frequency_vector()
        from repro.core.histogram import WaveletHistogram

        synopsis = WaveletHistogram.from_frequency_vector(histogram, K)
        store.save("syn", synopsis)
        store.save("syn", synopsis)
        payload = glob.glob(os.path.join(root, "syn", "v00002",
                                         "synopsis.bin"))[0]
        with open(payload, "r+b") as handle:
            handle.seek(16)
            handle.write(b"\xde\xad\xbe\xef")
        return root

    def test_load_intact_falls_back_and_quarantines(self, corrupt_store_root):
        store = SynopsisStore(corrupt_store_root)
        with pytest.raises(SynopsisIntegrityError):
            store.load("syn", 2).histogram  # noqa: B018 - eager verification
        handle = store.load_intact("syn")
        assert handle.metadata.version == 1
        assert store.quarantined_versions("syn") == [2]

    def test_server_serves_intact_ancestor_with_degraded_flag(
            self, corrupt_store_root):
        intact = QueryServer(SynopsisStore(corrupt_store_root))
        v1 = intact.range_sums("syn", [1, 1], [U, 32], version=1)

        degraded = QueryServer(SynopsisStore(corrupt_store_root))
        answers = degraded.range_sums("syn", [1, 1], [U, 32])
        np.testing.assert_array_equal(answers, v1)

        stats = degraded.stats()
        assert stats["degraded"] == {
            "syn": {"requested_version": 2, "serving_version": 1},
        }
        # Selectivities pin the fallback version for the denominator too.
        selectivities = degraded.selectivities("syn", [1], [U])
        np.testing.assert_allclose(selectivities, [1.0])
        # refresh() clears the flag; the quarantine makes the next touch
        # degrade again without re-reading the corrupt payload.
        degraded.refresh()
        assert degraded.stats()["degraded"] == {}
        np.testing.assert_array_equal(degraded.range_sums("syn", [1], [U]),
                                      v1[:1])
        assert degraded.stats()["degraded"]["syn"]["serving_version"] == 1

    def test_every_version_corrupt_raises(self, tmp_path, tiny_dataset):
        from repro.core.histogram import WaveletHistogram

        root = str(tmp_path / "store")
        store = SynopsisStore(root)
        synopsis = WaveletHistogram.from_frequency_vector(
            tiny_dataset.frequency_vector(), K)
        store.save("syn", synopsis)
        payload = glob.glob(os.path.join(root, "syn", "v00001",
                                         "synopsis.bin"))[0]
        with open(payload, "r+b") as handle:
            handle.seek(16)
            handle.write(b"\xde\xad\xbe\xef")
        fresh = SynopsisStore(root)
        with pytest.raises(SynopsisIntegrityError):
            fresh.load_intact("syn")


class TestTransientErrorClassification:
    def test_transient_and_permanent_hierarchy(self):
        from repro.errors import ExecutorError, MapReduceError, ReproError

        assert issubclass(TaskTransientError, MapReduceError)
        assert issubclass(TaskPermanentError, ExecutorError)
        assert issubclass(TaskPermanentError, ReproError)

    def test_default_policy_retries_transients_not_logic_errors(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TaskTransientError("flap"))
        assert not policy.is_retryable(ValueError("bug"))
        assert not policy.is_retryable(TaskPermanentError("done"))
