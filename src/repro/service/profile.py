"""The :class:`RuntimeProfile` value object: *how* to run a build.

A :class:`RuntimeProfile` is the only runtime argument of every build entry
point — ``HistogramAlgorithm.run(hdfs, input_path, profile=...)``,
``run_algorithms(..., profile=...)`` and the service façade's ``build`` and
``build_many`` — and ``JobRunner.from_profile`` turns it into a runner.  It
packages the orthogonal knobs of a run into one frozen, reusable value, so a
new runtime option touches the profile, not every entry point:

* **cluster** — the simulated cluster the MapReduce rounds are priced against
  (the paper's 16-node cluster when omitted);
* **cost_parameters** — the per-operation constants of the running-time model;
* **seed** — the base RNG seed for all randomised components;
* **executor** / **workers** — the task-execution seam: an executor *name*
  (``"serial"`` or ``"parallel"``, resolved through the process-wide shared
  pool) or an already-constructed :class:`~repro.mapreduce.executor.Executor`;
* **data_plane** — ``"batch"`` (columnar fast path) or ``"records"``
  (reference path).

Profiles are immutable; derive variants with :meth:`with_overrides`.  Because
executors, data planes and seeds are all result-preserving by construction,
two runs that differ only in their profile's *execution* fields (executor,
workers, data_plane) are bit-identical — the profile changes how fast the
answer arrives, never what it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Union

from repro.cost.model import CostParameters
from repro.errors import InvalidParameterError
from repro.mapreduce.cluster import ClusterSpec, paper_cluster
from repro.mapreduce.executor import (
    DATA_PLANE_NAMES,
    EXECUTOR_NAMES,
    Executor,
    shared_executor,
)
from repro.mapreduce.serialization import zero_copy_default
from repro.telemetry import Telemetry

__all__ = ["RuntimeProfile"]


@dataclass(frozen=True)
class RuntimeProfile:
    """Everything about *how* a synopsis build executes, as one value.

    Attributes:
        cluster: cluster description; the paper's 16-node cluster when ``None``.
        cost_parameters: per-operation cost constants; model defaults when
            ``None``.
        seed: seed for all randomised components (sampling, sketches).
        executor: executor name (``"serial"``/``"parallel"``, resolved through
            :func:`~repro.mapreduce.executor.shared_executor`) or a concrete
            :class:`~repro.mapreduce.executor.Executor` instance.
        workers: worker processes for a named parallel executor (machine CPU
            count when ``None``); ignored when ``executor`` is an instance.
        data_plane: ``"batch"`` (columnar fast path) or ``"records"``
            (record-at-a-time reference path).
        concurrent_jobs: how many builds a batch entry point
            (``run_algorithms``, ``SynopsisService.build_many``) may run
            concurrently on the cluster's shared slot pool through the
            :class:`~repro.mapreduce.scheduler.ClusterScheduler`.  ``1`` (the
            default) builds one at a time.  Like every execution
            field, this never changes results — a concurrent batch is
            bit-identical to sequential builds — only wall-clock time.
        fault_rate: probability in ``[0, 1)`` that a task attempt draws an
            injected transient fault (chaos testing); ``0.0`` disables
            injection.  Faulted runs retry deterministically and stay
            bit-identical to fault-free runs — injection, like every other
            execution field, changes wall-clock time only.
        fault_seed: seed of the injected-fault stream, independent of the
            build ``seed`` so chaos runs never perturb task RNGs.
        zero_copy: whether task specs ship to parallel workers out-of-band —
            pickle protocol 5 buffers in shared-memory segments that every
            worker maps read-only — instead of being copied through the pool's
            in-band pickle stream (``zero-copy=on|off`` in CLI specs).
            ``None`` defers to the process-wide default (on), giving test
            harnesses one seam to flip a whole run onto the copying reference
            path.  Results are identical either way — only shipped bytes and
            memory change.
        telemetry: optional :class:`~repro.telemetry.Telemetry` bundle
            (metrics registry + tracer) every runner built from this profile
            instruments into; the process-global default when ``None``.
            Telemetry never touches task RNGs, payloads or merge order, so —
            like every other execution field — it cannot change results.
            Excluded from profile equality/hashing: two profiles that differ
            only in where their measurements land are the same profile.
    """

    cluster: Optional[ClusterSpec] = None
    cost_parameters: Optional[CostParameters] = None
    seed: int = 7
    executor: Union[str, Executor] = "serial"
    workers: Optional[int] = None
    data_plane: str = "batch"
    concurrent_jobs: int = 1
    fault_rate: float = 0.0
    fault_seed: int = 0
    zero_copy: Optional[bool] = None
    telemetry: Optional[Telemetry] = field(default=None, compare=False,
                                           repr=False)

    def __post_init__(self) -> None:
        if self.telemetry is not None and not isinstance(self.telemetry, Telemetry):
            raise InvalidParameterError(
                f"telemetry must be a Telemetry bundle or None, "
                f"got {type(self.telemetry).__name__}"
            )
        if isinstance(self.executor, str) and self.executor not in EXECUTOR_NAMES:
            raise InvalidParameterError(
                f"executor must be one of {EXECUTOR_NAMES} or an Executor "
                f"instance, got {self.executor!r}"
            )
        if not isinstance(self.executor, (str, Executor)):
            raise InvalidParameterError(
                f"executor must be a name or an Executor, got {type(self.executor).__name__}"
            )
        if self.workers is not None and self.workers < 1:
            raise InvalidParameterError(f"workers must be positive, got {self.workers}")
        if self.data_plane not in DATA_PLANE_NAMES:
            raise InvalidParameterError(
                f"data_plane must be one of {DATA_PLANE_NAMES}, got {self.data_plane!r}"
            )
        if self.concurrent_jobs < 1:
            raise InvalidParameterError(
                f"concurrent_jobs must be >= 1, got {self.concurrent_jobs}"
            )
        if not 0.0 <= self.fault_rate < 1.0:
            raise InvalidParameterError(
                f"fault_rate must be in [0, 1), got {self.fault_rate}"
            )
        if self.fault_rate > 0.0 and isinstance(self.executor, Executor):
            raise InvalidParameterError(
                "fault_rate applies to named executors only; configure a "
                "FaultInjector on the Executor instance directly"
            )

    # ------------------------------------------------------------- resolution
    @property
    def executor_name(self) -> str:
        """The executor's name, whether configured by name or by instance."""
        return self.executor if isinstance(self.executor, str) else self.executor.name

    @property
    def zero_copy_enabled(self) -> bool:
        """The resolved ``zero_copy`` flag (process default when unset)."""
        return (zero_copy_default() if self.zero_copy is None
                else bool(self.zero_copy))

    def build_executor(self) -> Executor:
        """The concrete executor this profile selects.

        Named executors resolve through the process-wide shared table, so
        sweeps that reuse one profile also reuse one worker pool.
        """
        if isinstance(self.executor, Executor):
            return self.executor
        return shared_executor(self.executor, self.workers,
                               fault_rate=self.fault_rate,
                               fault_seed=self.fault_seed)

    def resolved_cluster(self) -> ClusterSpec:
        """The cluster to run against (the paper's cluster when unset)."""
        return self.cluster if self.cluster is not None else paper_cluster()

    # -------------------------------------------------------------- variation
    def with_overrides(self, **changes: Any) -> "RuntimeProfile":
        """Return a copy of the profile with the given fields replaced."""
        return replace(self, **changes)

    # ---------------------------------------------------------------- parsing
    @classmethod
    def parse_overrides(cls, text: str) -> Dict[str, Any]:
        """Parse a CLI profile specification into constructor overrides.

        Two spellings are accepted:

        * a bare executor shorthand — ``"serial"``, ``"parallel"`` or
          ``"parallel:8"`` (name plus worker count);
        * comma-separated ``key=value`` pairs over the keys ``executor``,
          ``workers``, ``seed``, ``data_plane``, ``concurrent_jobs``,
          ``fault_rate``, ``fault_seed`` and ``zero_copy`` (dashes allowed
          in keys), e.g.
          ``"executor=parallel,workers=4,data-plane=records,seed=3"`` or
          ``"parallel:4,concurrent-jobs=7"`` or
          ``"serial,fault-rate=0.2,fault-seed=11"`` or
          ``"parallel,zero-copy=off"``.

        Only keys actually present in the text appear in the result, so
        callers can layer the overrides onto an existing configuration
        without clobbering its other defaults.
        """
        overrides: Dict[str, Any] = {}
        if not text or not text.strip():
            raise InvalidParameterError("empty profile specification")
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                key, _, value = part.partition("=")
                key = key.strip().replace("-", "_")
                value = value.strip()
                if key in ("executor", "data_plane"):
                    overrides[key] = value
                elif key in ("workers", "seed", "concurrent_jobs", "fault_seed"):
                    try:
                        overrides[key] = int(value)
                    except ValueError as error:
                        raise InvalidParameterError(
                            f"profile key {key!r} needs an integer, got {value!r}"
                        ) from error
                elif key == "fault_rate":
                    try:
                        overrides[key] = float(value)
                    except ValueError as error:
                        raise InvalidParameterError(
                            f"profile key {key!r} needs a number, got {value!r}"
                        ) from error
                elif key == "zero_copy":
                    lowered = value.lower()
                    if lowered in ("on", "true", "1", "yes"):
                        overrides[key] = True
                    elif lowered in ("off", "false", "0", "no"):
                        overrides[key] = False
                    else:
                        raise InvalidParameterError(
                            f"profile key {key!r} needs on/off, got {value!r}"
                        )
                else:
                    raise InvalidParameterError(
                        f"unknown profile key {key!r}; expected one of "
                        f"executor, workers, seed, data-plane, concurrent-jobs, "
                        f"fault-rate, fault-seed, zero-copy"
                    )
            else:
                name, _, workers = part.partition(":")
                overrides["executor"] = name.strip()
                if workers:
                    try:
                        overrides["workers"] = int(workers)
                    except ValueError as error:
                        raise InvalidParameterError(
                            f"profile worker count must be an integer, got {workers!r}"
                        ) from error
        return overrides

    @classmethod
    def parse(cls, text: str) -> "RuntimeProfile":
        """Build a profile from a CLI specification (see :meth:`parse_overrides`)."""
        return cls(**cls.parse_overrides(text))

    # ------------------------------------------------------------- reporting
    def describe(self) -> str:
        """A one-line human-readable summary (used by the CLI reports)."""
        workers = f":{self.workers}" if (
            isinstance(self.executor, str) and self.workers is not None
        ) else ""
        jobs = (f" concurrent-jobs={self.concurrent_jobs}"
                if self.concurrent_jobs > 1 else "")
        faults = (f" fault-rate={self.fault_rate:g} fault-seed={self.fault_seed}"
                  if self.fault_rate > 0.0 else "")
        shipping = "" if self.zero_copy_enabled else " zero-copy=off"
        return (f"executor={self.executor_name}{workers} "
                f"data-plane={self.data_plane} seed={self.seed}"
                f"{jobs}{faults}{shipping}")
