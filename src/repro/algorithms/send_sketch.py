"""Send-Sketch: per-split GCS wavelet sketches merged at the reducer.

Each mapper scans its split, aggregates the local frequency vector (so every
*distinct* key updates the sketch exactly once — the paper's first
optimisation), inserts the keys into a Group-Count Sketch of the wavelet
coefficients, and emits only the sketch's non-zero entries (the second
optimisation).  The single reducer merges the ``m`` sketches (they are linear)
and extracts the approximate top-``k`` coefficients with the hierarchical
group-testing search.

The paper sizes each sketch at ``20 kB * log2(u)`` and uses GCS-8; at our
scale the per-level space and branching factor are constructor parameters with
the same defaults.  Send-Sketch resolves the multi-round and communication
issues of the exact methods but still scans every record and pays a large
per-key sketch-update cost, which is why the paper measures it as the slowest
method overall.
"""

from __future__ import annotations

from typing import Iterable

from repro.algorithms.base import (
    CONF_DOMAIN,
    CONF_K,
    CONF_SKETCH_BYTES_PER_LEVEL,
    CONF_SKETCH_SEED,
    ExecutionOutcome,
    HistogramAlgorithm,
    SplitCountMapper,
)
from repro.errors import InvalidParameterError
from repro.mapreduce.api import MapperContext, Reducer, ReducerContext
from repro.mapreduce.counters import CounterNames
from repro.mapreduce.job import JobConfiguration, MapReduceJob
from repro.mapreduce.plan import JobPlan, PlanContext, PlanStage
from repro.sketches.wavelet import WaveletGcsSketch

__all__ = ["SendSketch", "SendSketchMapper", "SendSketchReducer"]


class SendSketchMapper(SplitCountMapper):
    """Builds the split's local GCS wavelet sketch and ships its non-zero entries.

    Close counts the split's keys once (so every distinct key updates the
    sketch once, with its aggregate count) and inserts the exact transform of
    those counts; the GCS's precomputed hash tables turn the whole
    coefficient batch into fancy indexing.  Those hash tables are built once
    per process and shared by every task's sketch, so a task allocates, and
    ships to the reducer, only its counters.
    """

    def setup(self, context: MapperContext) -> None:
        super().setup(context)
        self._seed = int(context.configuration.require(CONF_SKETCH_SEED))
        self._bytes_per_level = int(context.configuration.require(CONF_SKETCH_BYTES_PER_LEVEL))

    def close(self, context: MapperContext) -> None:
        keys, counts = self.split_counts()
        sketch = WaveletGcsSketch(
            u=self._u,
            bytes_per_level=self._bytes_per_level,
            seed=self._seed,
        )
        sketch.update_counts(keys, counts)
        log_u = max(1, self._u.bit_length() - 1)
        # Each distinct key update touches log2(u) + 1 wavelet coefficients.
        context.counters.increment(
            CounterNames.SKETCH_UPDATE_OPS, int(keys.size) * (log_u + 1)
        )
        context.emit(0, sketch, size_bytes=sketch.serialized_size_bytes())


class SendSketchReducer(Reducer):
    """Merges the per-split sketches and extracts the approximate top-k coefficients."""

    def setup(self, context: ReducerContext) -> None:
        self._u = int(context.configuration.require(CONF_DOMAIN))
        self._k = int(context.configuration.require(CONF_K))
        self._merged: WaveletGcsSketch | None = None

    def reduce(self, key: int, values: Iterable[WaveletGcsSketch],
               context: ReducerContext) -> None:
        for sketch in values:
            if self._merged is None:
                self._merged = sketch
            else:
                self._merged.merge_in_place(sketch)
            context.counters.increment(CounterNames.REDUCE_CPU_OPS, sketch.total_cells)

    def close(self, context: ReducerContext) -> None:
        if self._merged is None:
            return
        top = self._merged.top_k(self._k)
        # Query cost: the group-testing search touches a beam of groups per level.
        context.counters.increment(
            CounterNames.SKETCH_QUERY_OPS,
            self._merged.gcs.num_levels * max(4 * self._k, 32),
        )
        for index, value in top.items():
            context.emit(index, value)


class SendSketch(HistogramAlgorithm):
    """Driver for the Send-Sketch baseline (one MapReduce round)."""

    name = "Send-Sketch"

    def __init__(self, u: int, k: int, bytes_per_level: int = 20 * 1024,
                 sketch_seed: int = 131) -> None:
        """Args:
            u: key domain size.
            k: number of coefficients to keep.
            bytes_per_level: sketch space per GCS level (paper: 20 kB).
            sketch_seed: hash seed shared by all splits so sketches merge.
        """
        super().__init__(u, k)
        if bytes_per_level < 1024:
            raise InvalidParameterError(
                f"bytes_per_level should be at least 1 kB, got {bytes_per_level}"
            )
        self.bytes_per_level = bytes_per_level
        self.sketch_seed = sketch_seed

    def create_plan(self, input_path: str) -> JobPlan:
        def build(context: PlanContext) -> MapReduceJob:
            return MapReduceJob(
                name=f"{self.name}(k={self.k})",
                input_path=context.input_path,
                mapper_class=SendSketchMapper,
                reducer_class=SendSketchReducer,
                configuration=JobConfiguration(
                    {
                        CONF_DOMAIN: self.u,
                        CONF_K: self.k,
                        CONF_SKETCH_SEED: self.sketch_seed,
                        CONF_SKETCH_BYTES_PER_LEVEL: self.bytes_per_level,
                    }
                ),
            )

        def finish(context: PlanContext) -> ExecutionOutcome:
            result = context.result("aggregate")
            coefficients = {int(index): float(value) for index, value in result.output}
            return ExecutionOutcome(
                coefficients=coefficients,
                rounds=context.ordered_rounds(),
                details={
                    "bytes_per_level": self.bytes_per_level,
                    "sketch_pairs_shuffled": result.counters.get(CounterNames.SHUFFLE_RECORDS),
                },
            )

        return JobPlan(
            name=f"{self.name}(k={self.k})",
            input_path=input_path,
            stages=(PlanStage("aggregate", build),),
            finish=finish,
        )
