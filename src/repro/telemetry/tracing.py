"""Span-based tracing with pluggable sinks.

A :class:`Span` is a named, timed region of execution with attributes
and (via the tracer's per-thread stack) a parent — so a chase run
produces a tree like::

    chase.run
    ├── chase.stratum[0]
    │   ├── chase.round        {round: 1, new_facts: 12}
    │   └── chase.round        {round: 2, new_facts: 0}
    └── chase.stratum[1] ...

Finished spans are emitted to every registered sink as flat dicts
(``span_id``/``parent_id`` re-encode the tree), which is the usual
JSONL trace shape.  Two sinks ship:

* :class:`RingBufferSink` — keeps the last N spans in memory (default
  sink; what :func:`ChaseResult.stats` and the tests read back);
* :class:`JSONLFileSink` — appends one JSON object per line (the CLI
  ``--trace-out FILE.jsonl`` flag).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional


_SCALARS = (str, int, float, bool, type(None))


def json_normalize(value: Any) -> Any:
    """JSON-normalize a value: scalars stay, dict keys become ``str``,
    lists and tuples become lists, and anything else (a LabelledNull, a
    Constant, any other domain object) becomes its ``str``.  A ground
    ``Constant`` is the 1-tuple of its value, so a tuple subclass with
    its own ``__str__`` is a value too, not a sequence."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {str(k): json_normalize(v) for k, v in value.items()}
    if (
        isinstance(value, (list, tuple))
        and type(value).__str__ is object.__str__
    ):
        return [json_normalize(v) for v in value]
    return str(value)


class Span:
    """One timed region; durations are integer nanoseconds."""

    __slots__ = (
        "name", "span_id", "parent_id", "start_ns", "end_ns", "attributes",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = time.perf_counter_ns()
        self.end_ns: Optional[int] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})

    def set(self, **attributes: Any) -> None:
        """Attach (or update) attributes on the open span."""
        self.attributes.update(attributes)

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else (
            time.perf_counter_ns()
        )
        return end - self.start_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration_ns}ns)"


class _NullSpan:
    """Shared no-op stand-in returned while telemetry is disabled, so
    call sites can unconditionally do ``span.set(...)``."""

    __slots__ = ()

    def set(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class RingBufferSink:
    """Keeps the most recent ``capacity`` finished spans in memory."""

    def __init__(self, capacity: int = 10_000):
        self._buffer: Deque[Dict[str, Any]] = deque(maxlen=capacity)

    def emit(self, span: Dict[str, Any]) -> None:
        self._buffer.append(span)

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        if name is None:
            return list(self._buffer)
        return [s for s in self._buffer if s["name"] == name]

    def clear(self) -> None:
        self._buffer.clear()

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._buffer)


class JSONLFileSink:
    """Appends each finished span as one JSON line."""

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def emit(self, span: Dict[str, Any]) -> None:
        line = json.dumps(json_normalize(span))
        with self._lock:
            self._handle.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()


class _SpanContext:
    """Context manager binding a live span to the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Creates nested spans and fans finished ones out to sinks."""

    def __init__(self, sinks: Optional[List[Any]] = None):
        self.sinks: List[Any] = (
            list(sinks) if sinks is not None else [RingBufferSink()]
        )
        self._local = threading.local()
        self._id_lock = threading.Lock()
        self._next_id = 1

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a span as a context manager; nests under the thread's
        currently open span."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(name, span_id, parent_id, attributes)
        stack.append(span)
        return _SpanContext(self, span)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _finish(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order exit; drop it from wherever it is
            try:
                stack.remove(span)
            except ValueError:
                pass
        record = span.to_dict()
        for sink in self.sinks:
            sink.emit(record)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # -- sink management -----------------------------------------------------

    def add_sink(self, sink: Any) -> None:
        self.sinks.append(sink)

    def ring_buffer(self) -> Optional[RingBufferSink]:
        """The first ring-buffer sink, if any (the default setup has
        exactly one)."""
        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                return sink
        return None

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Finished spans from the ring buffer (empty when no ring
        buffer is attached)."""
        buffer = self.ring_buffer()
        return buffer.spans(name) if buffer is not None else []

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __repr__(self) -> str:
        return f"Tracer({len(self.sinks)} sink(s))"
