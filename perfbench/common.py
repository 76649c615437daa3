"""What every workload shares: the run context, spans, statistics and probes."""

from __future__ import annotations

import gc
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.backends import MemoryBackend
from repro.serving.store import SynopsisStore
from repro.telemetry import SpanEvent, Telemetry, Tracer, set_telemetry

MB = 1e6
# Seeds the *shape* of every workload's input (which popularity ranks occur,
# in what order).  The run's --seed picks the keys, names and ranges those
# ranks map to, so every seed does the same amount of work on different
# inputs and the spread between seeds is the host's, not the inputs'.
SHAPE_SEED = 20110829
# Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 5
# The kind of the benchmark's own spans in the run's tracer.
KIND = "perfbench"


class Timeline:
    """The spans of a traced run, read back from the run's tracer.

    The benchmark's own spans have kind :data:`KIND`; the program's spans
    (kind ``store``, ``streaming``, ...) nest under them where a benchmark
    operation called into the program.  A program span counts only inside a
    benchmark span, so the loads the benchmark's own checks make are left out.
    """

    def __init__(self, events: Sequence[SpanEvent]) -> None:
        self.events = list(events)
        by_id = {event.span_id: event for event in self.events}
        # Each span's nearest enclosing benchmark span.
        self.owner: Dict[int, Optional[SpanEvent]] = {}
        for event in self.events:
            parent = by_id.get(event.parent_id)
            while parent is not None and parent.kind != KIND:
                parent = by_id.get(parent.parent_id)
            self.owner[event.span_id] = parent

    def named(self, name: str, kind: str = KIND, **match: Any) -> List[SpanEvent]:
        return [event for event in self.events
                if event.name == name and event.kind == kind
                and (kind == KIND or self.owner[event.span_id] is not None)
                and all(event.attributes.get(k) == v for k, v in match.items())]

    def durations(self, name: str, kind: str = KIND, **match: Any) -> List[float]:
        return [event.duration_s for event in self.named(name, kind, **match)]

    def self_times(self, name: str, **match: Any) -> List[float]:
        """Durations of benchmark spans minus the benchmark spans they enclose."""
        inner: Dict[int, List[SpanEvent]] = {}
        for event in self.events:
            owner = self.owner[event.span_id]
            if event.kind == KIND and owner is not None:
                inner.setdefault(owner.span_id, []).append(event)
        times = []
        for event in self.named(name, **match):
            covered = 0.0
            cursor = event.start_s
            for child in sorted(inner.get(event.span_id, []), key=lambda c: c.start_s):
                start = max(child.start_s, cursor)
                end = child.start_s + child.duration_s
                if end > start:
                    covered += end - start
                    cursor = end
            times.append(event.duration_s - covered)
        return times


class SpannedStore(SynopsisStore):
    """A store whose calls in and out of the store layer are spans.

    Traced runs hand this to the service, so the saves a build publish, a
    catalog fill or a streaming maintainer makes are timed where they enter
    the store layer (serialisation and version lookup included), without
    instrumenting the program itself.
    """

    def __init__(self, ctx: "RunContext", root: Optional[str] = None,
                 backend: Optional[MemoryBackend] = None) -> None:
        super().__init__(root, backend=backend)
        self.ctx = ctx

    def save(self, name, histogram, **kwargs):
        with self.ctx.span("store.save", synopsis=name,
                           checkpoint=name.endswith(".state")):
            return super().save(name, histogram, **kwargs)

    def save_delta(self, name, histogram, **kwargs):
        with self.ctx.span("store.save_delta", synopsis=name):
            return super().save_delta(name, histogram, **kwargs)

    def latest_version(self, name, default=0):
        with self.ctx.span("store.lookup", synopsis=name):
            return super().latest_version(name, default=default)


class RunContext:
    """One benchmark run: its arguments, work directory and verdicts."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 root: str, tiny: bool = False, perturb: Optional[str] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.tiny = tiny
        self.perturb = perturb
        self.tampered = False
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: Dict[str, Any] = {}
        # One tracer for every telemetry bundle of the run, switched on only
        # while traced work runs, so the run's spans form one timeline.
        self.tracer = Tracer(enabled=False, max_events=2_000_000)
        self.work = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        self.telemetry: Optional[Telemetry] = None
        self._stores = 0
        self._request = 0

    @property
    def correct(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        """Record a wrong output (the run reports ``correct: false``)."""
        if len(self.failures) < 20:
            print(f"check failed: {message}", file=sys.stderr)
        self.failures.append(message)

    def attempt(self, operation: Callable[[], Any]) -> Any:
        """Run one operation, counting it; an exception counts it as failed."""
        self.attempted += 1
        try:
            return operation()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def tamper(self, kind: str, values: np.ndarray) -> np.ndarray:
        """Perturb one value of an output, once, when the smoke mode asks for ``kind``."""
        if self.perturb != kind or self.tampered:
            return values
        self.tampered = True
        changed = np.array(values, dtype=np.float64)
        largest = int(np.argmax(np.abs(changed)))
        changed[largest] += 3 * abs(changed[largest]) + 1.0
        return changed

    def store(self, label: str, in_memory: bool = False) -> SynopsisStore:
        """A fresh store: in memory, or a directory under the run's work directory.

        Directory stores are kept until the run ends: deleting files slows
        the file creation that follows on the same disk, which would land in
        the timings of the set-ups and rounds after a deletion.
        """
        root, backend = None, None
        if in_memory:
            backend = MemoryBackend()
        else:
            self._stores += 1
            root = os.path.join(self.work, f"{label}-{self._stores}")
            os.makedirs(root)
        if self.trace:
            return SpannedStore(self, root, backend=backend)
        return SynopsisStore(root, backend=backend)

    def remove_work(self) -> None:
        """Delete the run's stores and wait until the deletion is on disk."""
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.open(os.path.dirname(self.work), os.O_RDONLY)
        try:
            os.fsync(parent)
        finally:
            os.close(parent)

    def new_request(self) -> None:
        """Start a new operation: later spans carry a fresh request id."""
        self._request += 1

    def span(self, name: str, **attributes: Any):
        """A benchmark span in the run's tracer, tagged with the request id.

        A no-op (its handle's ``set`` does nothing) while tracing is off.
        """
        return self.tracer.span(name, kind=KIND, request=self._request, **attributes)

    @contextmanager
    def tracing(self, on: bool) -> Iterator[None]:
        """Record spans, the benchmark's and the program's, while ``on``."""
        self.tracer.enabled = on
        try:
            yield
        finally:
            self.tracer.enabled = False

    def timeline(self) -> Timeline:
        if self.tracer.dropped:
            raise RuntimeError(f"the tracer dropped {self.tracer.dropped} spans")
        return Timeline(self.tracer.events())

    @contextmanager
    def scoped(self) -> Iterator[Telemetry]:
        """A fresh telemetry bundle, installed as the process default for the run.

        Counts are read only from this bundle's metrics registry, so nothing
        recorded during set-up, input generation or another run can leak
        into the run's numbers.  The bundle carries the run's tracer.
        """
        bundle = Telemetry(tracer=self.tracer)
        previous = set_telemetry(bundle)
        self.telemetry = bundle
        try:
            yield bundle
        finally:
            set_telemetry(previous)

    def rounds(self, run_round: Callable[[int, bool], None]) -> int:
        """Run whole rounds until ``seconds`` have passed, and at least two.

        Two rounds give every median at least two samples on a slow host.  A
        traced run alternates traced and untraced rounds, starting with a
        traced one, so tracing overhead can be read from the same process.
        """
        started = time.perf_counter()
        index = 0
        while True:
            traced = self.trace and index % 2 == 0
            with self.tracing(traced):
                run_round(index, traced)
            index += 1
            if index >= 2 and time.perf_counter() - started >= self.seconds:
                return index


def repeated_setup(set_up: Callable[[], Any]):
    """Set up :data:`SETUP_REPEATS` times; returns (median seconds, last state).

    The garbage left over is collected before each set-up is timed, so every
    set-up starts from the same heap (directory stores stay until the run
    ends).
    """
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        state = set_up()
        times.append(time.perf_counter() - started)
    return median(times), state


def median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def tail(values: Sequence[float], percentile: float) -> float:
    """The ``percentile`` of ``values``, or their median below ten samples beyond it.

    Each workload fixes the highest percentile a run at the benchmark's
    length still has ten samples beyond, so the percentile does not move
    with the sample count; only the tiny smoke runs fall back to the median.
    """
    if len(values) * (1 - percentile / 100) < 10:
        return median(values)
    return float(np.percentile(values, percentile))


def geomean(values: Sequence[float]) -> float:
    return float(np.exp(np.mean(np.log(values)))) if len(values) else 0.0


def host_probe_ms() -> float:
    """Median time of a fixed numpy sort: tells a slow host from a slow change."""
    data = np.random.default_rng(20110901).random(1_000_000)
    times = []
    for _ in range(9):
        started = time.perf_counter()
        np.sort(data)
        times.append(time.perf_counter() - started)
    return median(times) * 1e3


def peak_rss_mb() -> float:
    """Peak resident memory of this process (VmHWM)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) * 1024 / MB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def counter_total(telemetry: Telemetry, name: str, **labels: Any) -> float:
    """Sum of a counter over every label set matching ``labels``."""
    total = 0.0
    for entry in telemetry.metrics.snapshot()["counters"]:
        if entry["name"] == name and all(
                entry["labels"].get(k) == v for k, v in labels.items()):
            total += entry["value"]
    return total


def histogram_totals(telemetry: Telemetry, name: str) -> Tuple[int, float]:
    """Observation count and sum of a histogram over every label set."""
    count = 0
    total = 0.0
    for entry in telemetry.metrics.snapshot()["histograms"]:
        if entry["name"] == name:
            count += entry["count"]
            total += entry["sum"]
    return count, total
