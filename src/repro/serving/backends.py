"""Pluggable storage backends for the synopsis catalog.

A :class:`~repro.serving.store.SynopsisStore` is the *policy* layer — naming,
versioning, checksumming, the deterministic WHSYN001 payload format — while a
:class:`StoreBackend` is the *mechanism*: where the metadata and payload bytes
of each ``(name, version)`` actually live.  Two backends ship:

``DirectoryBackend``
    The original on-disk layout: ``<root>/<name>/v<NNNNN>/{meta.json,
    synopsis.bin}``, published by atomic directory rename so readers never
    observe a half-written version.  The per-version metadata is the only
    catalog: listings read it, and no summary file is derived from it.

``MemoryBackend``
    The same catalog semantics held in process memory — byte-identical
    payloads, the same append-only versioning and the same sha256 integrity
    verification on load (checksums are enforced by the store layer above the
    backend, so no backend can opt out of them).  Useful for services that
    build and serve in one process, for tests, and as the reference
    implementation for remote backends (object store, sqlite) the executor
    seam's ROADMAP items call for.

Backends deal exclusively in ``str`` metadata documents and ``bytes``
payloads; they never parse either.  Writers are expected to be single-process
per backend (the simulated cluster's "master"); concurrent readers are safe.
"""

from __future__ import annotations

import mmap
import os
import re
import threading
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidParameterError, SynopsisNotFoundError
from repro.telemetry import get_telemetry

__all__ = [
    "META_FILENAME",
    "PAYLOAD_FILENAME",
    "NAME_PATTERN",
    "StoreBackend",
    "DirectoryBackend",
    "MemoryBackend",
]

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_PATTERN = re.compile(r"^v(\d{5})$")
META_FILENAME = "meta.json"
PAYLOAD_FILENAME = "synopsis.bin"


class StoreBackend(ABC):
    """Where a synopsis catalog's bytes live.

    Implementations must keep versions append-only (``publish`` refuses to
    overwrite an existing version) and make a published version visible
    atomically — a reader either sees both the metadata and the payload of a
    version, or neither.
    """

    name: str = "abstract"

    @abstractmethod
    def names(self) -> List[str]:
        """All synopsis names with at least one published version, sorted."""

    @abstractmethod
    def versions(self, name: str) -> List[int]:
        """All published versions of ``name``, ascending (empty when unknown)."""

    @abstractmethod
    def read_metadata(self, name: str, version: int) -> str:
        """The metadata document of one version.

        Raises:
            SynopsisNotFoundError: the version is not published.
        """

    @abstractmethod
    def read_payload(self, name: str, version: int) -> bytes:
        """The payload bytes of one version.

        Raises:
            SynopsisNotFoundError: the version's payload is unreadable.
        """

    def read_payload_view(self, name: str, version: int) -> memoryview:
        """A read-only buffer view of one version's payload bytes.

        The zero-copy read seam: backends that can expose the payload without
        materialising it on the heap (the directory backend memory-maps
        ``synopsis.bin``) override this; the default wraps
        :meth:`read_payload` so every backend satisfies the contract.  The
        view owns whatever keeps the bytes alive (an mmap, a bytes object) —
        callers release it with ``view.release()`` when done.

        Raises:
            SynopsisNotFoundError: the version's payload is unreadable.
        """
        return memoryview(self.read_payload(name, version))

    @abstractmethod
    def publish(self, name: str, version: int, metadata_text: str,
                payload: bytes) -> None:
        """Atomically publish one new version (metadata + payload together).

        Raises:
            InvalidParameterError: the version already exists (append-only).
        """

    def location(self, name: str, version: int) -> Optional[str]:
        """Filesystem path of a version, for backends that have one."""
        return None

    def describe(self) -> str:
        """A short human-readable identifier (used in CLI output)."""
        return self.name


class DirectoryBackend(StoreBackend):
    """The on-disk catalog layout: one directory per ``(name, version)``."""

    name = "directory"

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    # ----------------------------------------------------------------- layout
    def _version_dir(self, name: str, version: int) -> str:
        return os.path.join(self.root, name, f"v{version:05d}")

    def location(self, name: str, version: int) -> Optional[str]:
        return self._version_dir(name, version)

    def describe(self) -> str:
        return f"directory:{self.root}"

    # ---------------------------------------------------------------- listing
    def names(self) -> List[str]:
        try:
            entries = os.listdir(self.root)
        except OSError:
            return []
        return sorted(
            entry for entry in entries
            if NAME_PATTERN.match(entry)
            and os.path.isdir(os.path.join(self.root, entry))
            and self.versions(entry)
        )

    def versions(self, name: str) -> List[int]:
        try:
            entries = os.listdir(os.path.join(self.root, name))
        except OSError:
            return []
        found: List[int] = []
        for entry in entries:
            match = _VERSION_PATTERN.match(entry)
            if match and os.path.exists(
                os.path.join(self.root, name, entry, META_FILENAME)
            ):
                found.append(int(match.group(1)))
        return sorted(found)

    # ---------------------------------------------------------------- reading
    def read_metadata(self, name: str, version: int) -> str:
        path = os.path.join(self._version_dir(name, version), META_FILENAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as error:
            raise SynopsisNotFoundError(
                f"store has no synopsis {name!r} version {version}: {error}"
            ) from error

    def read_payload(self, name: str, version: int) -> bytes:
        path = os.path.join(self._version_dir(name, version), PAYLOAD_FILENAME)
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except OSError as error:
            raise SynopsisNotFoundError(
                f"payload of {name} v{version} is unreadable: {error}"
            ) from error

    def read_payload_view(self, name: str, version: int) -> memoryview:
        """Memory-map ``synopsis.bin`` instead of reading it onto the heap.

        The WHSYN001 format is fixed-endian and offset-addressable precisely
        so payloads can be mapped: every process serving a version shares the
        one page-cache copy of its bytes, and faulting a synopsis in costs
        page table entries, not a heap-sized read.  The file descriptor is
        closed immediately (the mapping keeps the inode alive); a file that
        cannot be mapped (empty, exotic filesystem) falls back to the heap
        read.
        """
        path = os.path.join(self._version_dir(name, version), PAYLOAD_FILENAME)
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except OSError as error:
            raise SynopsisNotFoundError(
                f"payload of {name} v{version} is unreadable: {error}"
            ) from error
        except ValueError:
            return memoryview(self.read_payload(name, version))
        get_telemetry().metrics.inc("repro_payload_mmap_total")
        return memoryview(mapped)

    # ---------------------------------------------------------------- writing
    def publish(self, name: str, version: int, metadata_text: str,
                payload: bytes) -> None:
        final_dir = self._version_dir(name, version)
        if os.path.exists(final_dir):
            raise InvalidParameterError(
                f"synopsis {name!r} version {version} already exists"
            )
        os.makedirs(os.path.dirname(final_dir), exist_ok=True)
        staging_dir = final_dir + ".tmp"
        os.makedirs(staging_dir, exist_ok=True)
        with open(os.path.join(staging_dir, PAYLOAD_FILENAME), "wb") as handle:
            handle.write(payload)
        with open(os.path.join(staging_dir, META_FILENAME), "w", encoding="utf-8") as handle:
            handle.write(metadata_text)
        os.replace(staging_dir, final_dir)


class MemoryBackend(StoreBackend):
    """An in-process catalog: the directory layout's semantics, no disk.

    Payloads are the exact bytes the directory backend would have written
    (serialisation happens above the backend), so a synopsis saved to a
    memory store and one saved to a directory store have identical checksums
    and serve bit-identical answers.
    """

    name = "memory"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> version -> (metadata document, payload bytes)
        self._entries: Dict[str, Dict[int, Tuple[str, bytes]]] = {}

    def describe(self) -> str:
        return "memory"

    # ---------------------------------------------------------------- listing
    def names(self) -> List[str]:
        with self._lock:
            return sorted(name for name, versions in self._entries.items() if versions)

    def versions(self, name: str) -> List[int]:
        with self._lock:
            return sorted(self._entries.get(name, ()))

    # ---------------------------------------------------------------- reading
    def _entry(self, name: str, version: int) -> Tuple[str, bytes]:
        with self._lock:
            try:
                return self._entries[name][version]
            except KeyError:
                raise SynopsisNotFoundError(
                    f"store has no synopsis {name!r} version {version}"
                ) from None

    def read_metadata(self, name: str, version: int) -> str:
        return self._entry(name, version)[0]

    def read_payload(self, name: str, version: int) -> bytes:
        return self._entry(name, version)[1]

    # ---------------------------------------------------------------- writing
    def publish(self, name: str, version: int, metadata_text: str,
                payload: bytes) -> None:
        with self._lock:
            versions = self._entries.setdefault(name, {})
            if version in versions:
                raise InvalidParameterError(
                    f"synopsis {name!r} version {version} already exists"
                )
            versions[version] = (metadata_text, bytes(payload))
