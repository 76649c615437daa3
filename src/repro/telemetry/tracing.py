"""Structured span tracing with JSONL export.

A :class:`Tracer` collects :class:`SpanEvent` records — named, timed spans
with a kind, free-form attributes and parent links — from every layer of the
pipeline: job → round → phase on the build side, ingest → maintain → publish
on the streaming side, query batch → multi-synopsis fan-out on the serving
side, and save/load/integrity-check in the store.

Design constraints (the telemetry hard invariant):

* span ids are **monotonic integers under a lock** — no RNG is ever touched,
  so enabling tracing cannot perturb any seeded component;
* a disabled tracer (the default) costs one attribute check per call site
  and records nothing;
* parent links come from a per-thread stack of open spans, so nested
  ``with tracer.span(...)`` blocks form a tree per thread while
  scheduler-interleaved work records flat spans tagged with ``job``/
  ``round``/``phase`` attributes instead.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

__all__ = ["SpanEvent", "Tracer"]


@dataclass(frozen=True)
class SpanEvent:
    """One completed span: a named, timed unit of work.

    Attributes:
        name: what ran (e.g. ``"phase:map"``, ``"maintain.publish"``).
        kind: which layer emitted it — ``"build"``, ``"scheduler"``,
            ``"serving"``, ``"streaming"`` or ``"store"``.
        start_s: start time in seconds relative to the tracer's epoch.
        duration_s: wall time of the span.
        span_id: monotonic id unique within the tracer.
        parent_id: enclosing span's id, or ``None`` for roots.
        attributes: free-form JSON-friendly context (job name, round index,
            shard count, byte sizes, ...).
    """

    name: str
    kind: str
    start_s: float
    duration_s: float
    span_id: int
    parent_id: Optional[int] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """A plain dict ready for ``json.dumps`` (one JSONL line)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SpanEvent":
        """Inverse of :meth:`to_json`."""
        return cls(
            name=str(payload["name"]),
            kind=str(payload.get("kind", "span")),
            start_s=float(payload.get("start_s", 0.0)),
            duration_s=float(payload.get("duration_s", 0.0)),
            span_id=int(payload.get("span_id", 0)),
            parent_id=(None if payload.get("parent_id") is None
                       else int(payload["parent_id"])),
            attributes=dict(payload.get("attributes", {})),
        )


class _ActiveSpan:
    """Handle yielded by :meth:`Tracer.span`; collects attributes until exit."""

    __slots__ = ("name", "kind", "attributes", "span_id", "parent_id", "_start")

    def __init__(self, name: str, kind: str, attributes: Dict[str, Any],
                 span_id: int, parent_id: Optional[int], start: float) -> None:
        self.name = name
        self.kind = kind
        self.attributes = attributes
        self.span_id = span_id
        self.parent_id = parent_id
        self._start = start

    def set(self, **attributes: Any) -> None:
        """Attach attributes discovered while the span is running."""
        self.attributes.update(attributes)


class _NullSpan:
    """No-op stand-in returned while the tracer is disabled."""

    __slots__ = ()

    def set(self, **attributes: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager pairing for one active span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: _ActiveSpan) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> _ActiveSpan:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._tracer._pop(self._span, error=exc_type is not None)


class _NullContext:
    """Context manager returned while the tracer is disabled."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        pass


_NULL_CONTEXT = _NullContext()


class Tracer:
    """Collects span events; disabled by default so tracing is opt-in.

    Thread-safe: the event buffer and the span-id counter live under one
    lock, while the open-span stack (for parent links) is per-thread.
    ``max_events`` bounds memory — once full, further spans are counted in
    :attr:`dropped` instead of stored.
    """

    def __init__(self, enabled: bool = False, max_events: int = 200_000) -> None:
        self.enabled = bool(enabled)
        self.max_events = int(max_events)
        self.dropped = 0
        self._lock = threading.Lock()
        self._events: List[SpanEvent] = []
        self._next_id = 1
        self._stack = threading.local()
        self._epoch = time.perf_counter()

    # ----------------------------------------------------------- span stack
    def _parent_id(self) -> Optional[int]:
        stack = getattr(self._stack, "spans", None)
        if stack:
            return stack[-1].span_id
        return None

    def _push(self, span: _ActiveSpan) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = []
            self._stack.spans = stack
        stack.append(span)
        span._start = time.perf_counter()

    def _pop(self, span: _ActiveSpan, error: bool) -> None:
        duration = time.perf_counter() - span._start
        stack = getattr(self._stack, "spans", None)
        if stack and stack[-1] is span:
            stack.pop()
        if error:
            span.attributes.setdefault("error", True)
        self._append(SpanEvent(
            name=span.name,
            kind=span.kind,
            start_s=span._start - self._epoch,
            duration_s=duration,
            span_id=span.span_id,
            parent_id=span.parent_id,
            attributes=span.attributes,
        ))

    def _append(self, event: SpanEvent) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
            else:
                self._events.append(event)

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    # -------------------------------------------------------------- emitting
    def span(self, name: str, /, kind: str = "span",
             **attributes: Any) -> Union["_SpanContext", "_NullContext"]:
        """Open a span as a context manager; no-op when disabled.

        ``name`` is positional-only so an attribute may be called ``name``
        without colliding with the span's own name.

        The yielded handle has ``set(**attrs)`` for attributes only known
        mid-span.  Timing starts at ``__enter__`` and the event is recorded
        at ``__exit__`` (with ``error: true`` attached if an exception flew
        through).
        """
        if not self.enabled:
            return _NULL_CONTEXT
        span = _ActiveSpan(name=name, kind=kind, attributes=dict(attributes),
                           span_id=self._allocate_id(),
                           parent_id=self._parent_id(),
                           start=0.0)
        return _SpanContext(self, span)

    def record(self, name: str, /, kind: str = "span",
               duration_s: float = 0.0, **attributes: Any) -> None:
        """Record an already-measured event post hoc (no context manager).

        Used where the span boundaries live across callbacks — e.g. a round's
        map phase measured between ``begin_round`` and the map barrier.
        """
        if not self.enabled:
            return
        self._append(SpanEvent(
            name=name,
            kind=kind,
            start_s=time.perf_counter() - self._epoch - float(duration_s),
            duration_s=float(duration_s),
            span_id=self._allocate_id(),
            parent_id=self._parent_id(),
            attributes=dict(attributes),
        ))

    # --------------------------------------------------------------- reading
    def events(self) -> List[SpanEvent]:
        """A copy of the recorded events, in recording order."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Drop all recorded events (the id counter keeps advancing)."""
        with self._lock:
            self._events.clear()
            self.dropped = 0

    # ---------------------------------------------------------------- export
    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns the number of events."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event.to_json(), sort_keys=True))
                handle.write("\n")
        return len(events)

    @staticmethod
    def load_jsonl(path: str) -> List[SpanEvent]:
        """Read spans back from a file written by :meth:`export_jsonl`."""
        events: List[SpanEvent] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(SpanEvent.from_json(json.loads(line)))
        return events
