"""Persistent, versioned, checksummed storage of wavelet synopses.

A :class:`SynopsisStore` is a catalog mapping a synopsis *name* to an
append-only sequence of *versions*.  Where the bytes live is delegated to a
pluggable :class:`~repro.serving.backends.StoreBackend`; the default
:class:`~repro.serving.backends.DirectoryBackend` keeps the original on-disk
layout of one directory per version::

    <root>/<name>/v00001/meta.json      # metadata + sha256 of the payload
    <root>/<name>/v00001/synopsis.bin   # deterministic binary coefficient dump

while :class:`~repro.serving.backends.MemoryBackend` holds the identical
bytes in process memory (see :meth:`SynopsisStore.in_memory`).

The binary format is fixed-endian and fully deterministic — its one writer,
:func:`serialize_arrays`, turns the same ``(u, k, indices, values)`` into
byte-identical payloads, which is what makes the store's round-trip guarantee
testable *and* makes backends interchangeable (the same synopsis has the same
checksum everywhere); :func:`deserialize_arrays` is its mirror::

    WHSYN001 | header_len (u32 LE) | header JSON (u, k, count)
             | count * int64 LE coefficient indices (ascending)
             | count * float64 LE coefficient values

Design points:

* **Versioned**: ``save`` never overwrites; it creates ``v<N+1>``.  Readers
  can pin a version or follow the latest, so a serving process can keep
  answering from version N while a rebuild publishes N+1.
* **Checksummed**: the metadata records the sha256 of the payload; every load
  verifies it — in the store layer, *above* the backend seam, so no backend
  can opt out — and raises :class:`~repro.errors.SynopsisIntegrityError` on
  mismatch, so silent corruption cannot flow into query answers.
* **Lazy**: :meth:`SynopsisStore.load` reads only the (small) metadata; the
  payload is read and verified on first use of
  :meth:`StoredSynopsis.coefficient_arrays` (views over its bytes) or
  :meth:`StoredSynopsis.engine` (which adopts them).  A server can therefore
  enumerate a large catalog cheaply and fault synopses in on first query.
* **Atomic-ish publish**: the backend publishes metadata and payload together
  (the directory backend stages and renames), so readers never observe a
  half-written version.

Writers are expected to be single-process per backend (the simulated
cluster's "master"); concurrent readers are safe.
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import struct
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.histogram import WaveletHistogram
from repro.errors import (
    InvalidParameterError,
    SynopsisIntegrityError,
    SynopsisNotFoundError,
)
from repro.serving.backends import (
    META_FILENAME,
    NAME_PATTERN,
    PAYLOAD_FILENAME,
    DirectoryBackend,
    MemoryBackend,
    StoreBackend,
)
from repro.serving.engine import BatchQueryEngine
from repro.telemetry import DEFAULT_BYTE_BUCKETS, get_telemetry

__all__ = [
    "MAGIC",
    "META_FILENAME",
    "PAYLOAD_FILENAME",
    "SynopsisMetadata",
    "StoredSynopsis",
    "SynopsisStore",
    "serialize_arrays",
    "deserialize_arrays",
]

logger = logging.getLogger(__name__)

MAGIC = b"WHSYN001"

# A synopsis as the writer takes it: (u, k, ascending indices, values).
_Arrays = Tuple[int, Optional[int], np.ndarray, np.ndarray]


# ----------------------------------------------------------------- byte format
def _integer_fault(name: str, value: Any, minimum: int) -> Optional[str]:
    """Why ``value`` is not an integer of at least ``minimum``, or ``None``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        return f"{name} must be an integer >= {minimum}, got {value!r}"
    return None


def _header_fault(u: Any, k: Any, count: Any) -> Optional[str]:
    """Why a synopsis header ``(u, k, count)`` cannot stand, or ``None``."""
    if _integer_fault("u", u, 1) or u & (u - 1):
        return f"u must be a positive power of two, got {u!r}"
    if k is not None and _integer_fault("k", k, 1):
        return f"k must be a positive integer or null, got {k!r}"
    return _integer_fault("coefficient count", count, 0)


def serialize_arrays(u: int, k: Optional[int], indices: Any, values: Any) -> bytes:
    """Serialise ``(u, k, indices, values)`` to the deterministic WHSYN001 bytes.

    The mirror of :func:`deserialize_arrays` and the store's only writer.
    ``indices`` must ascend strictly within ``[1, u]`` and ``values`` be
    finite and non-zero: the query engine adopts a payload's arrays as they
    are, so nothing it could not answer from may be written.

    Raises:
        InvalidParameterError: when the header or arrays break these rules.
    """
    indices = np.ascontiguousarray(indices, dtype="<i8")
    values = np.ascontiguousarray(values, dtype="<f8")
    fault = _header_fault(u, k, indices.size)
    if fault:
        raise InvalidParameterError(f"cannot serialise synopsis: {fault}")
    if indices.ndim != 1 or values.shape != indices.shape:
        raise InvalidParameterError("indices and values must be aligned 1-D arrays")
    if indices.size and (indices[0] < 1 or indices[-1] > u
                         or not (indices[1:] > indices[:-1]).all()):
        raise InvalidParameterError(
            f"coefficient indices must ascend strictly within [1, {u}]")
    if not (np.isfinite(values).all() and values.all()):
        raise InvalidParameterError("coefficient values must be finite and non-zero")
    header = json.dumps(
        {"u": int(u), "k": None if k is None else int(k), "count": indices.size},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    return b"".join([MAGIC, struct.pack("<I", len(header)), header, indices, values])


def deserialize_arrays(payload: Any) -> _Arrays:
    """Parse the binary format into ``(u, k, indices, values)`` without copying.

    Accepts anything exposing the buffer protocol — ``bytes``, a
    ``memoryview``, an mmap'd file — and returns int64/float64 arrays that
    *alias* the payload bytes (``np.frombuffer``), so an mmap-backed payload
    yields coefficient arrays served straight from the page cache.  The
    arrays are read-only whenever the source buffer is.

    Raises:
        SynopsisIntegrityError: if the payload is truncated or malformed, or
            its header is not a power-of-two ``u``, a positive or null ``k``
            and a non-negative ``count``.
    """
    view = memoryview(payload)
    if len(view) < len(MAGIC) + 4 or bytes(view[: len(MAGIC)]) != MAGIC:
        raise SynopsisIntegrityError("synopsis payload does not start with the WHSYN magic")
    offset = len(MAGIC)
    (header_len,) = struct.unpack_from("<I", view, offset)
    offset += 4
    try:
        header = json.loads(bytes(view[offset : offset + header_len]).decode("utf-8"))
        u, k, count = header["u"], header["k"], header["count"]
    except (TypeError, ValueError, KeyError, UnicodeDecodeError) as error:
        raise SynopsisIntegrityError(f"unreadable synopsis header: {error}") from error
    fault = _header_fault(u, k, count)
    if fault:
        raise SynopsisIntegrityError(f"invalid synopsis header: {fault}")
    offset += header_len
    expected = offset + count * 16
    if len(view) != expected:
        raise SynopsisIntegrityError(
            f"synopsis payload has {len(view)} bytes, header implies {expected}"
        )
    indices = np.frombuffer(view, dtype="<i8", count=count, offset=offset)
    values = np.frombuffer(view, dtype="<f8", count=count, offset=offset + count * 8)
    return u, k, indices, values


def _histogram_arrays(histogram: WaveletHistogram) -> _Arrays:
    """A histogram as the index-sorted ``(u, k, indices, values)`` the writer takes."""
    coefficients = histogram.coefficients
    indices = sorted(coefficients)
    return (histogram.u, histogram.k,
            np.fromiter(indices, dtype=np.int64, count=len(indices)),
            np.fromiter(map(coefficients.__getitem__, indices), dtype=np.float64,
                        count=len(indices)))


# ------------------------------------------------------------------- metadata
@dataclass(frozen=True)
class SynopsisMetadata:
    """Everything the store records about one stored synopsis version.

    Attributes:
        name: catalog name the synopsis was saved under.
        version: 1-based, monotonically increasing per name.
        algorithm: name of the builder that produced it (e.g. ``"TwoLevel-S"``).
        u: domain size.
        k: coefficient budget the synopsis was built with (may be ``None``).
        coefficient_count: number of non-zero coefficients actually stored.
        seed: the build's RNG seed (``None`` for deterministic builders).
        checksum_sha256: sha256 hex digest of the payload.
        payload_bytes: size of the payload.
        parent_version: for a *delta* publish (streaming maintenance), the
            version this one was derived from by applying updates — the
            provenance chain of an incrementally maintained synopsis.
            ``None`` for from-scratch builds and for first versions.
        build: build-side counters worth keeping with the synopsis —
            communication bytes, simulated seconds, MapReduce rounds, and any
            algorithm-specific extras (for delta publishes: update counts).
    """

    name: str
    version: int
    algorithm: str
    u: int
    k: Optional[int]
    coefficient_count: int
    seed: Optional[int]
    checksum_sha256: str
    payload_bytes: int
    parent_version: Optional[int] = None
    build: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        # A shallow dict of the fields: ``asdict`` would deep-copy ``build``
        # on every save, and json.dumps writes the same text either way.
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                          sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SynopsisMetadata":
        try:
            data = json.loads(text)
            fields = {key: data[key] for key in
                      ("name", "version", "algorithm", "u", "k",
                       "coefficient_count", "seed", "checksum_sha256",
                       "payload_bytes", "build")}
            # Added for delta publishes; meta.json written by earlier
            # releases predates it, so absence means "not a delta".
            fields["parent_version"] = data.get("parent_version")
            metadata = cls(**fields)
        except ValueError as error:  # includes json.JSONDecodeError
            raise SynopsisIntegrityError(f"unreadable meta.json: {error}") from error
        except (KeyError, TypeError) as error:
            raise SynopsisIntegrityError(f"malformed meta.json: {error}") from error
        fault = (_header_fault(metadata.u, metadata.k, metadata.coefficient_count)
                 or _integer_fault("version", metadata.version, 1)
                 or _integer_fault("payload_bytes", metadata.payload_bytes, 0))
        if fault:
            raise SynopsisIntegrityError(f"malformed meta.json: {fault}")
        return metadata


class StoredSynopsis:
    """A lazily loaded synopsis version: metadata now, payload on first use.

    The payload is faulted in exactly once — through the backend's zero-copy
    :meth:`~repro.serving.backends.StoreBackend.read_payload_view` seam, so
    the directory backend serves it mmap'd — checksum-verified, and then
    shared by everything derived from it: the coefficient arrays alias the
    payload bytes, the query engine adopts the arrays as read-only views, and
    :attr:`histogram` (the legacy dict form) is only materialised for callers
    that ask for it.  :meth:`release` drops the whole chain, which is how the
    server's LRU eviction returns a version's bytes.
    """

    def __init__(self, backend: StoreBackend, metadata: SynopsisMetadata) -> None:
        self.backend = backend
        self.metadata = metadata
        self._lock = threading.Lock()
        self._histogram: Optional[WaveletHistogram] = None
        self._engine: Optional[BatchQueryEngine] = None
        self._payload: Optional[memoryview] = None
        self._payload_kind = "heap"
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def directory(self) -> Optional[str]:
        """Filesystem location of this version (``None`` on diskless backends)."""
        return self.backend.location(self.metadata.name, self.metadata.version)

    @property
    def loaded(self) -> bool:
        """Whether the coefficient payload has been read yet."""
        return self._payload is not None

    def _payload_locked(self) -> memoryview:
        """Read + checksum-verify the payload once (caller holds the lock)."""
        if self._payload is None:
            telemetry = get_telemetry()
            started = time.perf_counter()
            with telemetry.tracer.span(
                    "store.load", kind="store",
                    synopsis=self.metadata.name,
                    version=self.metadata.version) as span:
                payload = self.backend.read_payload_view(
                    self.metadata.name, self.metadata.version
                )
                span.set(bytes=len(payload))
                with telemetry.tracer.span(
                        "store.integrity_check", kind="store",
                        synopsis=self.metadata.name,
                        version=self.metadata.version):
                    digest = hashlib.sha256(payload).hexdigest()
                    if digest != self.metadata.checksum_sha256:
                        telemetry.metrics.inc(
                            "repro_store_integrity_checks_total",
                            outcome="mismatch")
                        payload.release()
                        raise SynopsisIntegrityError(
                            f"checksum mismatch for {self.metadata.name} "
                            f"v{self.metadata.version}: stored "
                            f"{self.metadata.checksum_sha256}, computed {digest}"
                        )
                    telemetry.metrics.inc("repro_store_integrity_checks_total",
                                          outcome="ok")
            telemetry.metrics.observe("repro_store_load_seconds",
                                      time.perf_counter() - started)
            telemetry.metrics.inc("repro_store_load_bytes_total", len(payload))
            self._payload = payload
            self._payload_kind = (
                "mapped" if isinstance(payload.obj, mmap.mmap) else "heap"
            )
            telemetry.metrics.adjust_gauge("repro_payload_bytes_resident",
                                           len(payload),
                                           kind=self._payload_kind)
            logger.debug("loaded %s v%d (%d bytes, %s)", self.metadata.name,
                         self.metadata.version, len(payload),
                         self._payload_kind)
        return self._payload

    def _arrays_locked(self) -> Tuple[np.ndarray, np.ndarray]:
        """The payload's (indices, values) arrays, aliasing the payload bytes."""
        if self._arrays is None:
            payload = self._payload_locked()
            u, k, indices, values = deserialize_arrays(payload)
            metadata = self.metadata
            if (u, k, indices.size) != (metadata.u, metadata.k, metadata.coefficient_count):
                raise SynopsisIntegrityError(
                    f"payload of {metadata.name} v{metadata.version} "
                    f"disagrees with its metadata (u, k or coefficient count)"
                )
            self._arrays = (indices, values)
        return self._arrays

    @property
    def histogram(self) -> WaveletHistogram:
        """The dict-backed histogram, built once from the verified arrays."""
        with self._lock:
            if self._histogram is None:
                indices, values = self._arrays_locked()
                self._histogram = WaveletHistogram(
                    self.metadata.u, dict(zip(indices.tolist(), values.tolist())),
                    k=self.metadata.k)
            return self._histogram

    def coefficient_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The verified (indices, values) arrays — views over the payload."""
        with self._lock:
            return self._arrays_locked()

    def engine(self) -> BatchQueryEngine:
        """The batch query engine over this synopsis (built once, then shared).

        Built from the payload-aliasing arrays via the
        :meth:`~repro.serving.engine.BatchQueryEngine.from_arrays` pass-through
        — no dict round-trip, no coefficient copy.
        """
        with self._lock:
            if self._engine is None:
                indices, values = self._arrays_locked()
                self._engine = BatchQueryEngine.from_arrays(
                    self.metadata.u, indices, values)
            return self._engine

    def peek_engine(self) -> Optional[BatchQueryEngine]:
        """The engine if :meth:`engine` has built it, else ``None``.

        Unlike :meth:`engine` this never loads the payload or materialises
        anything — the observation-only accessor stats endpoints need.
        """
        with self._lock:
            return self._engine

    def release(self) -> int:
        """Drop the payload and everything derived from it; return bytes freed.

        The eviction half of the zero-copy serving path: engines, coefficient
        arrays and the payload view go together (the arrays alias the
        payload, so none may outlive it), the resident-bytes gauge is
        decremented, and an mmap'd payload is unmapped.  Idempotent; the next
        :meth:`engine`/:attr:`histogram` touch faults the payload back in.
        """
        with self._lock:
            payload = self._payload
            if payload is None:
                return 0
            freed = len(payload)
            self._engine = None
            self._arrays = None
            self._histogram = None
            self._payload = None
            owner = payload.obj
            try:
                payload.release()
                if isinstance(owner, mmap.mmap):
                    owner.close()
            except BufferError:
                # A caller still holds an aliasing view (an engine still
                # answering a batch); the bytes free when the last view drops.
                pass
            get_telemetry().metrics.adjust_gauge("repro_payload_bytes_resident",
                                                 -freed,
                                                 kind=self._payload_kind)
            return freed


# ---------------------------------------------------------------------- store
class SynopsisStore:
    """A catalog of named, versioned wavelet synopses over a pluggable backend.

    Args:
        root: root directory — shorthand for a
            :class:`~repro.serving.backends.DirectoryBackend` at that path.
        backend: an explicit :class:`~repro.serving.backends.StoreBackend`
            (mutually exclusive with ``root``).
    """

    def __init__(self, root: Optional[str] = None, *,
                 backend: Optional[StoreBackend] = None) -> None:
        if backend is not None and root is not None:
            raise InvalidParameterError("pass either root or backend, not both")
        if backend is None:
            if root is None:
                raise InvalidParameterError(
                    "SynopsisStore needs a root directory or a backend"
                )
            backend = DirectoryBackend(str(root))
        self.backend = backend
        self._lock = threading.Lock()
        # Versions whose payloads failed integrity checks, per name.  An
        # in-process denylist (not persisted): the bytes on the backend stay
        # untouched for forensics, but serving skips them when asked for an
        # intact version.
        self._quarantined: Dict[str, set] = {}

    @classmethod
    def in_memory(cls) -> "SynopsisStore":
        """A store over a fresh :class:`~repro.serving.backends.MemoryBackend`."""
        return cls(backend=MemoryBackend())

    @property
    def root(self) -> Optional[str]:
        """The backend's root directory (``None`` on diskless backends)."""
        return getattr(self.backend, "root", None)

    # ----------------------------------------------------------------- saving
    def save(
        self,
        name: str,
        histogram: Union[WaveletHistogram, _Arrays],
        *,
        algorithm: str = "unknown",
        seed: Optional[int] = None,
        build: Optional[Dict[str, Any]] = None,
    ) -> SynopsisMetadata:
        """Persist a synopsis as the next version of ``name``.

        ``histogram`` is a :class:`~repro.core.histogram.WaveletHistogram` or
        the ``(u, k, indices, values)`` tuple :func:`deserialize_arrays`
        returns; both are written by :func:`serialize_arrays`.  Returns the
        metadata of the new version (including its checksum).
        """
        return self._save(name, histogram, None, algorithm=algorithm, seed=seed,
                          build=build)

    def save_delta(
        self,
        name: str,
        histogram: Union[WaveletHistogram, _Arrays],
        *,
        parent_version: Optional[int],
        algorithm: str = "unknown",
        seed: Optional[int] = None,
        build: Optional[Dict[str, Any]] = None,
    ) -> SynopsisMetadata:
        """Publish ``histogram`` as the next version, recording its parent.

        A delta publish is how the streaming maintainer rolls a synopsis
        forward: the new version was derived *incrementally* from
        ``parent_version`` plus a batch of updates (never by rescanning base
        data), and its metadata records that provenance — the parent version
        here, update counts in ``build``.  The parent must be the current
        latest version (``None`` when publishing a first version), so a
        maintainer working from a stale view fails loudly instead of silently
        forking the version history.  ``histogram`` takes the forms
        :meth:`save` takes.

        Raises:
            InvalidParameterError: when ``parent_version`` is not the store's
                current latest version of ``name``.
        """
        return self._save(name, histogram, int(parent_version or 0),
                          algorithm=algorithm, seed=seed, build=build)

    def _save(self, name: str, synopsis: Union[WaveletHistogram, _Arrays],
              parent: Optional[int], *, algorithm: str, seed: Optional[int],
              build: Optional[Dict[str, Any]]) -> SynopsisMetadata:
        """Write the next version of ``name``: a delta's ``parent`` must be the
        latest version (0 for none); a plain save passes ``None``."""
        if not NAME_PATTERN.match(name):
            raise InvalidParameterError(
                f"synopsis name must match {NAME_PATTERN.pattern}, got {name!r}"
            )
        if isinstance(synopsis, WaveletHistogram):
            synopsis = _histogram_arrays(synopsis)
        u, k, indices, values = synopsis
        payload = serialize_arrays(u, k, indices, values)
        telemetry = get_telemetry()
        with self._lock:
            latest = self.latest_version(name, default=0)
            if parent is not None and parent != latest:
                raise InvalidParameterError(
                    f"delta publish of {name!r} expects parent version "
                    f"{parent or None}, but the store's latest is {latest or None}"
                )
            version = latest + 1
            started = time.perf_counter()
            with telemetry.tracer.span("store.save", kind="store", synopsis=name,
                                       version=version, bytes=len(payload),
                                       delta=bool(parent)):
                metadata = SynopsisMetadata(
                    name=name,
                    version=version,
                    algorithm=algorithm,
                    u=int(u),
                    k=None if k is None else int(k),
                    coefficient_count=len(indices),
                    seed=seed,
                    checksum_sha256=hashlib.sha256(payload).hexdigest(),
                    payload_bytes=len(payload),
                    parent_version=parent or None,
                    build=dict(build or {}),
                )
                self.backend.publish(name, version, metadata.to_json() + "\n", payload)
        telemetry.metrics.observe("repro_store_save_seconds",
                                  time.perf_counter() - started)
        telemetry.metrics.inc("repro_store_save_bytes_total", len(payload))
        telemetry.metrics.observe("repro_store_payload_bytes", len(payload),
                                  buckets=DEFAULT_BYTE_BUCKETS)
        logger.info("published %s v%d (%s, %d bytes)", name, version, algorithm,
                    len(payload))
        return metadata

    # ---------------------------------------------------------------- loading
    def load(self, name: str, version: Optional[int] = None) -> StoredSynopsis:
        """Return a lazy handle on ``name`` (latest version unless pinned)."""
        if version is None:
            version = self.latest_version(name, default=0)
            if version == 0:
                raise SynopsisNotFoundError(f"store has no synopsis named {name!r}")
        metadata = SynopsisMetadata.from_json(
            self.backend.read_metadata(name, version)
        )
        return StoredSynopsis(self.backend, metadata)

    # -------------------------------------------------------------- quarantine
    def quarantine(self, name: str, version: int, reason: str = "") -> None:
        """Mark one version's payload as corrupt so intact loads skip it."""
        with self._lock:
            already = version in self._quarantined.setdefault(name, set())
            self._quarantined[name].add(int(version))
        if not already:
            get_telemetry().metrics.inc("repro_store_quarantined_total")
            logger.warning("quarantined %s v%d%s", name, version,
                           f": {reason}" if reason else "")

    def quarantined_versions(self, name: str) -> List[int]:
        """Versions of ``name`` currently quarantined, ascending."""
        with self._lock:
            return sorted(self._quarantined.get(name, ()))

    def load_intact(self, name: str,
                    version: Optional[int] = None) -> StoredSynopsis:
        """Load the newest *verified-intact* version at or below ``version``.

        The graceful-degradation load: candidate versions (the requested one,
        then each older ancestor in version order) are payload-verified
        eagerly; one that fails its checksum is quarantined and the walk
        falls back to the next older version.  Raises the last
        :class:`~repro.errors.SynopsisIntegrityError` when no version
        survives, or :class:`~repro.errors.SynopsisNotFoundError` for an
        unknown name.
        """
        versions = self.versions(name)
        if not versions:
            raise SynopsisNotFoundError(f"store has no synopsis named {name!r}")
        target = versions[-1] if version is None else int(version)
        candidates = [v for v in versions if v <= target]
        if not candidates:
            raise SynopsisNotFoundError(
                f"store has no version <= {target} of {name!r}"
            )
        last_error: Optional[SynopsisIntegrityError] = None
        for candidate in reversed(candidates):
            if candidate in self._quarantined.get(name, ()):
                continue
            handle = self.load(name, candidate)
            try:
                handle.coefficient_arrays()  # eager read + checksum verification
            except SynopsisIntegrityError as error:
                self.quarantine(name, candidate, reason=str(error))
                last_error = error
                continue
            return handle
        raise last_error or SynopsisIntegrityError(
            f"every version of {name!r} up to v{target} is quarantined"
        )

    # -------------------------------------------------------------- catalogue
    def names(self) -> List[str]:
        """All synopsis names in the store, sorted."""
        return self.backend.names()

    def versions(self, name: str) -> List[int]:
        """All stored versions of ``name``, ascending (empty when unknown)."""
        return self.backend.versions(name)

    def latest_version(self, name: str, default: int = 0) -> int:
        """The newest version number of ``name`` (``default`` when unknown)."""
        versions = self.versions(name)
        return versions[-1] if versions else default

    def entries(self) -> List[SynopsisMetadata]:
        """Latest-version metadata for every name (the catalog listing)."""
        return [self.load(name).metadata for name in self.names()]
