"""H-WTopk: the paper's exact three-round algorithm (Section 3 and Appendix A).

The global wavelet coefficient ``w_i`` is the sum of the per-split local
coefficients ``w_{i,j}``, so finding the top-``k`` coefficients by magnitude
is a distributed top-k problem with *signed* scores.  H-WTopk solves it with a
modified TPUT implemented as three MapReduce rounds:

Round 1
    Each mapper scans its split, builds the local frequency vector, computes
    the local wavelet coefficients with the sparse ``O(|v_j| log u)``
    algorithm and emits its top-``k`` and bottom-``k`` coefficients, marking
    the ``k``-th highest and ``k``-th lowest so the reducer can bound unseen
    scores.  All other coefficients are saved as per-split state.  The reducer
    forms partial sums, computes the magnitude lower bounds ``tau(i)`` and the
    pruning threshold ``T1``.

Round 2
    ``T1 / m`` is broadcast through the Job Configuration.  Mappers read only
    their saved state and emit every remaining coefficient with
    ``|w_{i,j}| > T1/m``.  The reducer refines the bounds (an unreported score
    now lies in ``[-T1/m, T1/m]``), computes ``T2`` and prunes the candidate
    set ``R``.

Round 3
    ``R`` is replicated to the mappers through the Distributed Cache.  Mappers
    emit their not-yet-sent coefficients for candidates in ``R``; the reducer
    now knows each candidate's exact aggregate and returns the top-``k`` by
    magnitude.

State between rounds is read-only numpy arrays (see
:mod:`repro.mapreduce.state`): a split's unsent coefficients are
``{"remaining": (indices, values)}`` in ascending index order, and the
coordinator keeps its partial sums as ``(indices, values)`` in first-report
order, which is the order the reducers fold them in.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.algorithms.base import (
    CONF_DOMAIN,
    CONF_K,
    CONF_T1_OVER_M,
    CACHE_CANDIDATES,
    ExecutionOutcome,
    HistogramAlgorithm,
    SplitCountMapper,
)
from repro.core.haar import exact_haar_arrays
from repro.core.topk_coefficients import (
    bottom_k_positions,
    top_k_coefficients,
    top_k_positions,
)
from repro.errors import TopKError
from repro.mapreduce.api import Mapper, MapperContext, Reducer, ReducerContext
from repro.mapreduce.counters import CounterNames
from repro.mapreduce.job import DistributedCache, JobConfiguration, MapReduceJob
from repro.mapreduce.plan import JobPlan, PlanContext, PlanStage
from repro.topk.signed_tput import magnitude_lower_bound
from repro.topk.tput import kth_largest

__all__ = ["HWTopk"]

# 4-byte coefficient index + 4-byte split id + 8-byte double coefficient.
SCORE_PAIR_BYTES = 16

FLAG_NONE = 0
FLAG_KTH_HIGHEST = 1
FLAG_KTH_LOWEST = 2

# A split's saved coefficients cost a 4-byte index and an 8-byte value each.
REMAINING_PAIR_BYTES = 12

Coefficients = Tuple[np.ndarray, np.ndarray]

_NO_COEFFICIENTS: Coefficients = (np.empty(0, dtype=np.int64),
                                  np.empty(0, dtype=np.float64))


def _save_remaining(context: MapperContext, indices: np.ndarray,
                    values: np.ndarray) -> None:
    context.save_state({"remaining": (indices, values)},
                       size_bytes=int(indices.size) * REMAINING_PAIR_BYTES)


def _load_remaining(context: MapperContext) -> Coefficients:
    state = context.load_state()
    return _NO_COEFFICIENTS if state is None else state["remaining"]


def _emit_scores(context: MapperContext, indices: np.ndarray,
                 values: np.ndarray) -> None:
    for index, value in zip(indices.tolist(), values.tolist()):
        context.emit(index, (context.split_id, value), size_bytes=SCORE_PAIR_BYTES)


def _coordinator_arrays(partial: Dict[int, float],
                        reported: Dict[int, Set[int]]) -> Dict[str, Coefficients]:
    """The coordinator's partial sums and reporting splits as arrays.

    ``"partial"`` is ``(indices, values)`` in the dict's insertion order;
    ``"reported"`` is ``(counts, split ids)``: per index of ``"partial"``, how
    many splits reported it, then those splits' ids, ascending per index.
    """
    groups = [sorted(reported[index]) for index in partial]
    counts = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    return {
        "partial": (np.fromiter(partial.keys(), dtype=np.int64, count=len(partial)),
                    np.fromiter(partial.values(), dtype=np.float64, count=len(partial))),
        "reported": (counts, np.fromiter(chain.from_iterable(groups), dtype=np.int64,
                                         count=int(counts.sum()))),
    }


def _coordinator_dicts(state: Dict[str, Any]) -> Tuple[Dict[int, float],
                                                       Dict[int, Set[int]]]:
    """The partial sums and reporting splits of :func:`_coordinator_arrays`."""
    indices, values = state["partial"]
    counts, split_ids = state["reported"]
    index_list = indices.tolist()
    groups = np.split(split_ids, np.cumsum(counts)[:-1])
    return (dict(zip(index_list, values.tolist())),
            {index: set(group.tolist()) for index, group in zip(index_list, groups)})


# --------------------------------------------------------------------- Round 1
class Round1Mapper(SplitCountMapper):
    """Scans the split, emits local top-k/bottom-k coefficients, persists the rest.

    Round 1 is the only round that reads input, so it is the only round with a
    batch-plane fast path (the split arrives as one key array); rounds 2 and 3
    read only their persisted state.
    """

    def setup(self, context: MapperContext) -> None:
        super().setup(context)
        self._k = int(context.configuration.require(CONF_K))

    def close(self, context: MapperContext) -> None:
        keys, counts = self.split_counts()
        log_u = max(1, self._u.bit_length() - 1)
        indices, values = exact_haar_arrays(keys, counts, self._u)
        context.counters.increment(
            CounterNames.WAVELET_TRANSFORM_OPS, int(keys.size) * (log_u + 1)
        )
        top = top_k_positions(indices, values, self._k)
        bottom = bottom_k_positions(indices, values, self._k)
        kth_highest_index = int(indices[top[-1]]) if top.size == self._k else None
        kth_lowest_index = int(indices[bottom[-1]]) if bottom.size == self._k else None

        # The top-k, then the bottom-k entries the top-k did not already hold.
        emitted = np.concatenate((top, bottom[~np.isin(bottom, top)]))
        for index, value in zip(indices[emitted].tolist(), values[emitted].tolist()):
            flag = FLAG_NONE
            if index == kth_highest_index:
                flag = FLAG_KTH_HIGHEST
            elif index == kth_lowest_index:
                flag = FLAG_KTH_LOWEST
            context.emit(index, (context.split_id, value, flag),
                         size_bytes=SCORE_PAIR_BYTES)

        unsent = np.ones(indices.size, dtype=bool)
        unsent[emitted] = False
        _save_remaining(context, indices[unsent], values[unsent])


class Round1Reducer(Reducer):
    """Forms partial sums, derives the round-1 pruning threshold ``T1``."""

    def setup(self, context: ReducerContext) -> None:
        self._k = int(context.configuration.require(CONF_K))
        self._partial: Dict[int, float] = {}
        self._reported: Dict[int, Set[int]] = {}
        self._kth_highest: Dict[int, float] = {}
        self._kth_lowest: Dict[int, float] = {}

    def reduce(self, key: int, values: Iterable[Tuple[int, float, int]],
               context: ReducerContext) -> None:
        index = int(key)
        for split_id, value, flag in values:
            self._partial[index] = self._partial.get(index, 0.0) + value
            self._reported.setdefault(index, set()).add(split_id)
            if flag == FLAG_KTH_HIGHEST:
                self._kth_highest[split_id] = value
            elif flag == FLAG_KTH_LOWEST:
                self._kth_lowest[split_id] = value
            context.counters.increment(CounterNames.REDUCE_CPU_OPS)

    def close(self, context: ReducerContext) -> None:
        num_splits = context.num_splits
        # A split's unsent coefficients are bounded by its k-th highest / k-th
        # lowest sent coefficient, pushed out to include 0 because coefficients
        # the split never produced are exactly 0 (see repro.topk.signed_tput).
        self._kth_highest = {j: max(0.0, value) for j, value in self._kth_highest.items()}
        self._kth_lowest = {j: min(0.0, value) for j, value in self._kth_lowest.items()}
        total_highest = sum(self._kth_highest.get(j, 0.0) for j in range(num_splits))
        total_lowest = sum(self._kth_lowest.get(j, 0.0) for j in range(num_splits))

        taus: List[float] = []
        for index, partial in self._partial.items():
            reported = self._reported[index]
            tau_plus = partial + total_highest - sum(
                self._kth_highest.get(j, 0.0) for j in reported
            )
            tau_minus = partial + total_lowest - sum(
                self._kth_lowest.get(j, 0.0) for j in reported
            )
            taus.append(magnitude_lower_bound(tau_plus, tau_minus))
        t1 = kth_largest(taus, self._k)

        context.save_state({**_coordinator_arrays(self._partial, self._reported),
                            "t1": t1})
        context.emit("T1", float(t1))


# --------------------------------------------------------------------- Round 2
class Round2Mapper(Mapper):
    """Emits saved coefficients whose magnitude exceeds ``T1 / m``."""

    def close(self, context: MapperContext) -> None:
        threshold = float(context.configuration.require(CONF_T1_OVER_M))
        indices, values = _load_remaining(context)
        sent = np.abs(values) > threshold
        _emit_scores(context, indices[sent], values[sent])
        _save_remaining(context, indices[~sent], values[~sent])


class Round2Reducer(Reducer):
    """Refines bounds with ``T1/m``, derives ``T2`` and the candidate set ``R``."""

    def setup(self, context: ReducerContext) -> None:
        self._k = int(context.configuration.require(CONF_K))
        self._threshold = float(context.configuration.require(CONF_T1_OVER_M))
        state = context.load_state()
        if state is None:
            raise TopKError("H-WTopk round 2 reducer found no round-1 state")
        self._partial, self._reported = _coordinator_dicts(state)

    def reduce(self, key: int, values: Iterable[Tuple[int, float]],
               context: ReducerContext) -> None:
        index = int(key)
        for split_id, value in values:
            self._partial[index] = self._partial.get(index, 0.0) + value
            self._reported.setdefault(index, set()).add(split_id)
            context.counters.increment(CounterNames.REDUCE_CPU_OPS)

    def close(self, context: ReducerContext) -> None:
        num_splits = context.num_splits
        bounds: Dict[int, Tuple[float, float]] = {}
        for index, partial in self._partial.items():
            missing = num_splits - len(self._reported.get(index, set()))
            tau_plus = partial + missing * self._threshold
            tau_minus = partial - missing * self._threshold
            bounds[index] = (tau_plus, tau_minus)

        t2 = kth_largest(
            [magnitude_lower_bound(tau_plus, tau_minus) for tau_plus, tau_minus in bounds.values()],
            self._k,
        )
        candidates = sorted(
            index
            for index, (tau_plus, tau_minus) in bounds.items()
            if max(abs(tau_plus), abs(tau_minus)) >= t2
        )
        context.save_state({**_coordinator_arrays(self._partial, self._reported),
                            "candidates": np.asarray(candidates, dtype=np.int64)})
        context.emit("T2", float(t2))
        context.emit("R", tuple(candidates))


# --------------------------------------------------------------------- Round 3
class Round3Mapper(Mapper):
    """Emits the not-yet-sent coefficients of the candidate set ``R``."""

    def close(self, context: MapperContext) -> None:
        candidates = np.asarray(context.distributed_cache.get(CACHE_CANDIDATES),
                                dtype=np.int64)
        indices, values = _load_remaining(context)
        wanted = np.isin(indices, candidates)
        _emit_scores(context, indices[wanted], values[wanted])


class Round3Reducer(Reducer):
    """Completes the aggregates of the candidates and returns the exact top-k."""

    def setup(self, context: ReducerContext) -> None:
        self._k = int(context.configuration.require(CONF_K))
        state = context.load_state()
        if state is None:
            raise TopKError("H-WTopk round 3 reducer found no round-2 state")
        self._partial, _ = _coordinator_dicts(state)
        self._candidates: List[int] = state["candidates"].tolist()

    def reduce(self, key: int, values: Iterable[Tuple[int, float]],
               context: ReducerContext) -> None:
        index = int(key)
        for _split_id, value in values:
            self._partial[index] = self._partial.get(index, 0.0) + value
            context.counters.increment(CounterNames.REDUCE_CPU_OPS)

    def close(self, context: ReducerContext) -> None:
        exact = {index: self._partial.get(index, 0.0) for index in self._candidates}
        for index, value in top_k_coefficients(exact, self._k).items():
            context.emit(index, value)


# ---------------------------------------------------------------------- Driver
class HWTopk(HistogramAlgorithm):
    """Driver declaring the three MapReduce rounds of H-WTopk as one plan.

    The rounds form a dependency chain — round 2's pruning threshold is
    computed from round 1's output, round 3's candidate set from round 2's —
    expressed as stage dependencies in the :class:`JobPlan` instead of
    sequential re-invocations of the runner.  The cluster scheduler can
    therefore interleave H-WTopk's rounds with other jobs' tasks while the
    inter-round driver logic runs unchanged in the stage builders.
    """

    name = "H-WTopk"

    def create_plan(self, input_path: str) -> JobPlan:
        def round1_threshold(context: PlanContext) -> float:
            t1 = float(context.result("round1").output_dict()["T1"])
            return t1 / context.num_splits

        def build_round1(context: PlanContext) -> MapReduceJob:
            # Round 1: scan, local transforms, local top-k/bottom-k.
            return MapReduceJob(
                name=f"{self.name}-round1(k={self.k})",
                input_path=context.input_path,
                mapper_class=Round1Mapper,
                reducer_class=Round1Reducer,
                configuration=JobConfiguration({CONF_DOMAIN: self.u, CONF_K: self.k}),
            )

        def build_round2(context: PlanContext) -> MapReduceJob:
            # Round 2: broadcast T1/m, prune, compute candidate set R.
            return MapReduceJob(
                name=f"{self.name}-round2(k={self.k})",
                input_path=context.input_path,
                mapper_class=Round2Mapper,
                reducer_class=Round2Reducer,
                configuration=JobConfiguration(
                    {CONF_DOMAIN: self.u, CONF_K: self.k,
                     CONF_T1_OVER_M: round1_threshold(context)}
                ),
                read_input=False,
            )

        def build_round3(context: PlanContext) -> MapReduceJob:
            # Round 3: replicate R through the distributed cache, fetch exact
            # scores for every candidate.
            candidates = list(context.result("round2").output_dict()["R"])
            cache = DistributedCache()
            cache.add(CACHE_CANDIDATES, candidates, size_bytes=4 * len(candidates))
            return MapReduceJob(
                name=f"{self.name}-round3(k={self.k})",
                input_path=context.input_path,
                mapper_class=Round3Mapper,
                reducer_class=Round3Reducer,
                configuration=JobConfiguration(
                    {CONF_DOMAIN: self.u, CONF_K: self.k,
                     CONF_T1_OVER_M: round1_threshold(context)}
                ),
                distributed_cache=cache,
                read_input=False,
            )

        def finish(context: PlanContext) -> ExecutionOutcome:
            round2_output = context.result("round2").output_dict()
            round3 = context.result("round3")
            candidates = list(round2_output["R"])
            coefficients = {
                int(index): float(value)
                for index, value in round3.output
                if isinstance(index, int)
            }
            return ExecutionOutcome(
                coefficients=coefficients,
                rounds=context.ordered_rounds(),
                details={
                    "T1": float(context.result("round1").output_dict()["T1"]),
                    "T2": float(round2_output["T2"]),
                    "candidate_set_size": len(candidates),
                    "num_splits": context.num_splits,
                },
            )

        return JobPlan(
            name=f"{self.name}(k={self.k})",
            input_path=input_path,
            stages=(
                PlanStage("round1", build_round1),
                PlanStage("round2", build_round2, depends_on=("round1",)),
                PlanStage("round3", build_round3, depends_on=("round1", "round2")),
            ),
            finish=finish,
        )
