"""Serialization for the task seam: byte accounting and zero-copy shipping.

Two concerns live here, both about how bytes cross the task boundary:

1. **The serialized-size model.**  The paper measures communication in bytes:
   keys are 4-byte integers, frequency counts are 4-byte integers at mappers
   (8-byte at reducers), wavelet coefficients and sketch entries are 8-byte
   doubles, and the two-level sampling algorithm emits ``(key, NULL)`` pairs
   that carry only the key.  :class:`SerializationModel` centralises those
   conventions so every algorithm and the runtime agree on the size of an
   emitted pair.  Sizes are *logical payload* sizes; per-record framing
   overhead is configurable and defaults to zero so analytic bounds from the
   paper (e.g. ``sqrt(m)/eps`` keys ≈ bytes x key size) can be checked exactly.

2. **Zero-copy task shipping.**  The parallel executor used to copy every
   task spec — input split arrays, columnar shuffle blocks, fan-out query
   payloads — through an in-band pickle stream, once per task.
   :class:`ShipmentArena` instead pickles specs with protocol 5 and a
   ``buffer_callback`` that sidelines every large contiguous buffer into a
   :mod:`multiprocessing.shared_memory` segment; the worker re-attaches the
   segment and rebuilds the arrays as **read-only views** over the shared
   pages (:func:`load_shipped`), so N workers share one physical copy of the
   input instead of N pickled copies.  Buffers repeated across tasks (the
   serving fan-out ships one coefficient array to every shard) are written to
   shared memory once and referenced by every task.  Read-only views also
   *enforce* the task-purity contract: a task that mutated its input would
   already corrupt a serial run, where specs are passed by reference.

   Segment lifecycle is strictly coordinator-owned: the arena that created a
   segment unlinks it (:meth:`ShipmentArena.release`) at the phase barrier,
   when a scheduler task handle completes, or when the executor closes —
   worker processes only ever attach and drop views.  When shared memory is
   unavailable the arena degrades to inline (copied) buffers, and the
   ``zero-copy=off`` profile key keeps the plain in-band pickle path as the
   reference implementation.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory as _shm
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

try:  # CPython keeps this private-ish; degrade gracefully if it moves.
    from multiprocessing import resource_tracker as _resource_tracker
except ImportError:  # pragma: no cover - always present on CPython
    _resource_tracker = None  # type: ignore[assignment]

__all__ = [
    "SerializationModel",
    "DEFAULT_SERIALIZATION",
    "BufferRef",
    "ShippedTask",
    "ShipmentArena",
    "SegmentCache",
    "load_shipped",
    "pickled_task_bytes",
    "live_shipment_segments",
    "zero_copy_default",
    "set_zero_copy_default",
    "SHIP_PROTOCOL",
    "OOB_THRESHOLD_BYTES",
    "SHIP_MODE_PICKLED",
    "SHIP_MODE_OOB",
]

INT32_BYTES = 4
INT64_BYTES = 8
FLOAT64_BYTES = 8


@dataclass(frozen=True)
class SerializationModel:
    """Computes the serialized size in bytes of keys, values and pairs.

    Attributes:
        int_bytes: size of an integer key or count (Hadoop IntWritable).
        long_bytes: size of a long integer (Hadoop LongWritable).
        double_bytes: size of a floating point value (Hadoop DoubleWritable).
        pair_overhead_bytes: fixed per-pair framing overhead added on top of
            the key and value payloads.
    """

    int_bytes: int = INT32_BYTES
    long_bytes: int = INT64_BYTES
    double_bytes: int = FLOAT64_BYTES
    pair_overhead_bytes: int = 0

    def value_size(self, value: Any) -> int:
        """Serialized size of a single value.

        ``None`` is a zero-byte payload (the two-level sampler's NULL marker);
        booleans and integers use ``int_bytes``; floats use ``double_bytes``;
        tuples and lists are the sum of their elements; objects exposing a
        ``serialized_size_bytes`` attribute (sketches, state blobs) report it
        directly.  A numpy array of booleans or integers is ``int_bytes`` per
        element and one of floats ``double_bytes`` per element — the charge of
        the same elements in a list — computed in O(1).
        """
        if value is None:
            return 0
        size_attr = getattr(value, "serialized_size_bytes", None)
        if size_attr is not None:
            return int(size_attr() if callable(size_attr) else size_attr)
        if isinstance(value, np.ndarray):
            if value.dtype.kind in "biu":
                return self.int_bytes * value.size
            if value.dtype.kind == "f":
                return self.double_bytes * value.size
            raise TypeError(f"cannot compute serialized size of a {value.dtype} array")
        if isinstance(value, bool):
            return self.int_bytes
        if isinstance(value, int):
            return self.int_bytes
        if isinstance(value, float):
            return self.double_bytes
        if isinstance(value, (tuple, list)):
            return sum(self.value_size(item) for item in value)
        if isinstance(value, (bytes, bytearray)):
            return len(value)
        if isinstance(value, str):
            return len(value.encode("utf-8"))
        if isinstance(value, dict):
            return sum(
                self.value_size(k) + self.value_size(v) for k, v in value.items()
            )
        raise TypeError(f"cannot compute serialized size of {type(value).__name__}")

    def key_size(self, key: Any) -> int:
        """Serialized size of an intermediate key (defaults to the value rules)."""
        return self.value_size(key)

    def pair_size(self, key: Any, value: Any, explicit: Optional[int] = None) -> int:
        """Serialized size of a ``(key, value)`` pair.

        Args:
            key: the intermediate key.
            value: the intermediate value.
            explicit: if given, overrides the computed payload size (the pair
                overhead is still added).  Algorithms use this when they want
                to model a custom encoding (e.g. 4-byte counts at mappers).
        """
        payload = explicit if explicit is not None else self.key_size(key) + self.value_size(value)
        return payload + self.pair_overhead_bytes

    def record_pair(self, key: Any, value: Any) -> Tuple[int, int]:
        """Return ``(key_bytes, value_bytes)`` for the pair, without overhead."""
        return self.key_size(key), self.value_size(value)


DEFAULT_SERIALIZATION = SerializationModel()


# --------------------------------------------------------------------------
# Zero-copy task shipping (pickle protocol 5 + shared memory).

# Protocol 5 introduced out-of-band buffers; every supported interpreter has it.
SHIP_PROTOCOL = 5

# Buffers smaller than this stay in-band: a shared-memory segment costs a file
# descriptor and a page-granular mapping, which only pays off for real arrays.
OOB_THRESHOLD_BYTES = 2048

# Label values of the ``mode`` dimension of ``repro_task_ship_bytes_total``.
SHIP_MODE_PICKLED = "pickled"
SHIP_MODE_OOB = "out-of-band"

# Process-wide registry of segments created (and not yet released) by arenas
# in this process.  Tests assert this drains to empty — the no-leak contract.
_LIVE_SEGMENTS: Dict[str, _shm.SharedMemory] = {}

# Process-wide default for the ``zero_copy`` execution flag.  Profiles and
# runners resolve ``None`` against this, giving the test harness one seam to
# flip the whole suite onto the reference (copying) path.
_ZERO_COPY_DEFAULT = True


def zero_copy_default() -> bool:
    """The process-wide default of the ``zero_copy`` execution flag."""
    return _ZERO_COPY_DEFAULT


def set_zero_copy_default(enabled: bool) -> bool:
    """Set the process-wide ``zero_copy`` default; returns the previous value."""
    global _ZERO_COPY_DEFAULT
    previous = _ZERO_COPY_DEFAULT
    _ZERO_COPY_DEFAULT = bool(enabled)
    return previous


def live_shipment_segments() -> Tuple[str, ...]:
    """Names of shared-memory segments this process has created and not released."""
    return tuple(sorted(_LIVE_SEGMENTS))


@dataclass(frozen=True)
class BufferRef:
    """Where one out-of-band buffer of a shipped task lives.

    ``segment`` names a shared-memory segment holding ``length`` bytes at
    ``offset``; when ``segment`` is ``None`` the buffer travelled inline in
    ``data`` (the copying fallback for platforms without shared memory).
    """

    segment: Optional[str]
    offset: int = 0
    length: int = 0
    data: Optional[bytes] = None


@dataclass(frozen=True)
class ShippedTask:
    """A task spec pickled for out-of-band transport.

    ``payload`` is the protocol-5 pickle stream with every large buffer
    elided; ``buffers`` locates those buffers in pickler order.  The byte
    split the executor accounts: ``oob_bytes`` went to shared memory (mapped,
    not copied, by workers), ``inline_bytes`` crosses the worker pipe
    (the payload itself plus any inline-fallback buffers).
    """

    payload: bytes
    buffers: Tuple[BufferRef, ...]
    oob_bytes: int
    inline_bytes: int


class ShipmentArena:
    """Coordinator-side owner of the shared-memory segments for one scope.

    One arena serves one shipping scope — a phase's ``run_tasks`` call, which
    lends it to every task handle of the phase, or one scheduler task handle
    — and every segment it creates lives exactly until :meth:`release`.
    Buffers are de-duplicated by the identity of their exporting object, so
    an array shipped with N task specs occupies shared memory once (the arena
    pins the exporters to keep identities stable).
    """

    def __init__(self, use_shared_memory: bool = True) -> None:
        self._use_shared_memory = use_shared_memory
        self._segments: List[_shm.SharedMemory] = []
        self._dedup: Dict[int, BufferRef] = {}
        self._pinned: List[memoryview] = []
        self._released = False

    @property
    def released(self) -> bool:
        """Whether :meth:`release` already ran (segments are gone)."""
        return self._released

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Names of the segments this arena currently owns."""
        return tuple(segment.name for segment in self._segments)

    def ship(self, obj: Any) -> ShippedTask:
        """Pickle ``obj`` with its large buffers sidelined out-of-band."""
        if self._released:
            raise ValueError("cannot ship through a released ShipmentArena")
        raws: List[memoryview] = []

        def sideline(buffer: pickle.PickleBuffer) -> bool:
            # Truthy return => pickle keeps the buffer in-band.
            try:
                raw = buffer.raw()
            except BufferError:
                return True  # non-contiguous exporter: let pickle copy it
            if raw.nbytes < OOB_THRESHOLD_BYTES:
                return True
            raws.append(raw)
            return False

        payload = pickle.dumps(obj, protocol=SHIP_PROTOCOL,
                               buffer_callback=sideline)
        refs: List[Optional[BufferRef]] = []
        fresh: List[Tuple[int, memoryview]] = []
        for raw in raws:
            owner = raw.obj
            known = self._dedup.get(id(owner)) if owner is not None else None
            if known is not None:
                refs.append(known)
            else:
                refs.append(None)
                fresh.append((len(refs) - 1, raw))
        segment = self._allocate(sum(raw.nbytes for _, raw in fresh))
        oob_bytes = 0
        inline_bytes = len(payload)
        offset = 0
        for index, raw in fresh:
            if segment is None:
                # Shared memory is unavailable: the degraded path deliberately
                # copies the buffer inline rather than failing the ship.
                ref = BufferRef(segment=None, data=raw.tobytes())  # reprolint: disable=hot-path-copy
                inline_bytes += raw.nbytes
            else:
                end = offset + raw.nbytes
                segment.buf[offset:end] = raw
                ref = BufferRef(segment=segment.name, offset=offset,
                                length=raw.nbytes)
                offset = end
                oob_bytes += raw.nbytes
            refs[index] = ref
            if raw.obj is not None:
                self._dedup[id(raw.obj)] = ref
                self._pinned.append(raw)  # keep id() stable for the dedup key
        return ShippedTask(payload=payload,
                           buffers=tuple(refs),  # type: ignore[arg-type]
                           oob_bytes=oob_bytes, inline_bytes=inline_bytes)

    def _allocate(self, size: int) -> Optional[_shm.SharedMemory]:
        if size <= 0 or not self._use_shared_memory:
            return None
        try:
            segment = _shm.SharedMemory(create=True, size=size)
        except (OSError, ValueError):
            # No usable /dev/shm (or segment limit hit): degrade to inline
            # buffers for the rest of this arena's life.
            self._use_shared_memory = False
            return None
        self._segments.append(segment)
        _LIVE_SEGMENTS[segment.name] = segment
        return segment

    def release(self) -> None:
        """Close and unlink every segment this arena created (idempotent)."""
        if self._released:
            return
        self._released = True
        self._dedup.clear()
        self._pinned.clear()
        for segment in self._segments:
            _LIVE_SEGMENTS.pop(segment.name, None)
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exported views linger
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments.clear()

    def __enter__(self) -> "ShipmentArena":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


# Whether this process talks to a resource tracker it shares with the
# segment-creating coordinator (fork inherits the tracker connection).
# Decided on first attach; None until then.
_TRACKER_SHARED: Optional[bool] = None


def _attach_segment(name: str) -> _shm.SharedMemory:
    """Attach to an existing segment without adopting cleanup responsibility.

    Attaching registers the segment with a resource tracker (CPython
    registers on attach, not only on create).  When this process *shares*
    the coordinator's tracker — the fork start method inherits the tracker
    connection — that registration is a set-level no-op balanced by the
    coordinator's unlink, and reverting it would strip the coordinator's own
    entry.  When this process spun up its own tracker (spawn workers, or a
    fork that predates the first segment), the registration must be reverted
    here or the private tracker would "clean up" coordinator-owned segments
    at worker exit.  The first attach observes which situation we are in: an
    already-connected tracker at that point can only be an inherited one,
    because workers never create segments.
    """
    global _TRACKER_SHARED
    if _TRACKER_SHARED is None:
        tracker = getattr(_resource_tracker, "_resource_tracker", None)
        _TRACKER_SHARED = getattr(tracker, "_fd", None) is not None
    segment = _shm.SharedMemory(name=name)
    if not _TRACKER_SHARED and _resource_tracker is not None:
        try:
            _resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals moved
            pass
    return segment


class SegmentCache:
    """Worker-side LRU of attached shared-memory segments.

    Tasks from one phase share segments, so re-attaching per task would churn
    file descriptors; a small LRU keeps recent mappings alive.  Eviction
    tolerates still-exported views (the mapping then dies with its last view).
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._segments: "OrderedDict[str, _shm.SharedMemory]" = OrderedDict()
        # Evicted mappings whose views were still exported: parked here and
        # re-tried later, so SharedMemory.__del__ never runs on a mapping
        # that cannot close yet (which would print an ignored BufferError).
        self._zombies: List[_shm.SharedMemory] = []

    def __len__(self) -> int:
        return len(self._segments)

    def _retire(self, segment: _shm.SharedMemory) -> None:
        try:
            segment.close()
        except BufferError:  # views still exported; retry on a later call
            self._zombies.append(segment)

    def _reap_zombies(self) -> None:
        still_exported, self._zombies = self._zombies, []
        for segment in still_exported:
            self._retire(segment)

    def attach(self, name: str) -> _shm.SharedMemory:
        """Return a mapping of the named segment, attaching on first use."""
        self._reap_zombies()
        segment = self._segments.get(name)
        if segment is not None:
            self._segments.move_to_end(name)
            return segment
        segment = _attach_segment(name)
        self._segments[name] = segment
        while len(self._segments) > self._capacity:
            _, stale = self._segments.popitem(last=False)
            self._retire(stale)
        return segment

    def close(self) -> None:
        """Drop every cached mapping (best effort under exported views)."""
        self._reap_zombies()
        while self._segments:
            _, segment = self._segments.popitem(last=False)
            self._retire(segment)


_WORKER_SEGMENT_CACHE: Optional[SegmentCache] = None


def load_shipped(shipped: ShippedTask,
                 cache: Optional[SegmentCache] = None) -> Any:
    """Rebuild a shipped task spec, viewing (not copying) shared buffers.

    Shared-memory buffers are exposed to the unpickler as **read-only**
    views, so the rebuilt arrays alias the shared pages and cannot be
    mutated — the same aliasing a serial run has with the coordinator's own
    arrays.  Inline-fallback buffers arrive as the copies they are.
    """
    global _WORKER_SEGMENT_CACHE
    if cache is None:
        if _WORKER_SEGMENT_CACHE is None:
            _WORKER_SEGMENT_CACHE = SegmentCache()
        cache = _WORKER_SEGMENT_CACHE
    views: List[Any] = []
    for ref in shipped.buffers:
        if ref.segment is None:
            views.append(ref.data)
        else:
            segment = cache.attach(ref.segment)
            end = ref.offset + ref.length
            views.append(segment.buf[ref.offset:end].toreadonly())
    return pickle.loads(shipped.payload, buffers=views)


def pickled_task_bytes(obj: Any) -> int:
    """Size of the fully in-band pickle stream for ``obj``.

    This is what the reference (``zero-copy=off``) path copies per task; the
    executor charges it to ``repro_task_ship_bytes_total{mode="pickled"}`` so
    the two paths' byte accounting is directly comparable.
    """
    return len(pickle.dumps(obj, protocol=SHIP_PROTOCOL))
