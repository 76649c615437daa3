"""Per-task persistent state across MapReduce rounds.

H-WTopk is a three-round algorithm: a mapper handling split ``j`` in round 2
must see the wavelet coefficients it computed (but did not emit) in round 1,
and the single reducer must remember its partial sums and thresholds.  The
paper implements this with HDFS files named after the split id (written from
the mapper's Close method) and a local file on the designated reducer machine
(Appendix A).  Because the state file is written on the machine that stores
the split, the paper treats this traffic as free; the store still *counts* the
bytes so the assumption can be checked.

**Payloads are immutable.**  The runtime passes state blobs by reference — a
serial task loads the very object the store holds — so a payload must not
change after it is saved.  State should be numpy arrays inside plain
containers (dicts, tuples, lists): every array in a payload is frozen (marked
read-only) when the payload is saved and again when it arrives in a task
(:func:`freeze`), so a task that writes into loaded state raises the same
``ValueError`` under every executor instead of silently leaking the write
into the store.  A task that wants different state saves a new payload.
Array payloads are also sized in O(1) by
:meth:`~repro.mapreduce.serialization.SerializationModel.value_size`, and a
payload the model cannot size is an error, not a free write.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.mapreduce.serialization import DEFAULT_SERIALIZATION, SerializationModel

__all__ = ["StateStore", "freeze"]


def freeze(payload: Any) -> Any:
    """Mark every numpy array in ``payload`` read-only, in place; return it.

    Descends into dict values, tuples and lists; other objects are left as
    they are.  Freezing an array that is already read-only is a no-op.
    """
    if isinstance(payload, np.ndarray):
        payload.flags.writeable = False
    elif isinstance(payload, dict):
        for value in payload.values():
            freeze(value)
    elif isinstance(payload, (tuple, list)):
        for item in payload:
            freeze(item)
    return payload


class StateStore:
    """Keyed blob store standing in for per-split HDFS state files.

    Keys are ``(task kind, identifier)`` pairs, e.g. ``("split", 12)`` for the
    mapper handling split 12 or ``("reducer", 0)`` for the coordinator.
    """

    def __init__(self, serialization: SerializationModel = DEFAULT_SERIALIZATION) -> None:
        self._blobs: Dict[Tuple[str, int], Any] = {}
        self._serialization = serialization
        self.bytes_written = 0
        self.bytes_read = 0

    def save(self, kind: str, identifier: int, payload: Any,
             size_bytes: Optional[int] = None) -> None:
        """Persist ``payload`` for task ``(kind, identifier)``, replacing any previous blob.

        The payload's arrays are frozen; ``size_bytes`` defaults to the
        serialization model's size of the payload (``TypeError`` when the
        model cannot size it).
        """
        if size_bytes is None:
            size_bytes = self._serialization.value_size(payload)
        self._blobs[(kind, identifier)] = freeze(payload)
        self.bytes_written += int(size_bytes)

    def load(self, kind: str, identifier: int, default: Any = None) -> Any:
        """Read the blob for ``(kind, identifier)`` (``default`` when absent)."""
        if (kind, identifier) not in self._blobs:
            return default
        payload = self._blobs[(kind, identifier)]
        self.bytes_read += self._serialization.value_size(payload)
        return payload

    def peek(self, kind: str, identifier: int, default: Any = None) -> Any:
        """Read a blob without charging read bytes.

        Used by the runtime to snapshot a task's state into its task spec;
        the read is charged when (and only when) the task actually loads it.
        """
        return self._blobs.get((kind, identifier), default)

    def exists(self, kind: str, identifier: int) -> bool:
        """Return whether state exists for the task."""
        return (kind, identifier) in self._blobs

    def clear(self) -> None:
        """Drop all state (used between independent algorithm runs)."""
        self._blobs.clear()
        self.bytes_written = 0
        self.bytes_read = 0

    def keys(self) -> List[Tuple[str, int]]:
        """Return all ``(kind, identifier)`` pairs with stored state."""
        return sorted(self._blobs)

    def __len__(self) -> int:
        return len(self._blobs)
