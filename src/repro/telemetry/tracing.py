"""Span-based tracer with context-local parents and a bounded ring buffer.

Usage mirrors the metrics registry: acquire the tracer once, then open
spans around units of work::

    tracer = get_tracer()
    with tracer.span("mcr.solve", gallery="seed7", model="pmd") as span:
        ...
        span.set(iterations=passes)

Design points that keep the hot paths cheap:

* When the tracer is disabled, :meth:`Tracer.span` returns one shared
  :data:`NULL_SPAN` whose ``__enter__``/``__exit__``/``set`` are empty —
  no allocation, no clock read, no string formatting.  Attribute values
  are passed as keyword arguments precisely so callers never pre-format
  f-strings.
* The stack of open spans and the current trace id live in
  ``contextvars``: every asyncio task starts from a copy of its
  creator's context, so concurrent requests on one event loop each
  parent their spans to their own request span.  Executor threads start
  from an empty context.
* Exit removes the span from the stack by identity rather than a blind
  pop, so spans exited out of order cannot corrupt parent attribution.
* Finished spans land in a bounded ``deque`` (``DEFAULT_MAX_SPANS``
  unless ``max_spans`` says otherwise; oldest evicted first) and,
  optionally, in a user-supplied sink callable — the JSON-lines span log
  streams through such a sink.

Trace ids are caller-supplied opaque strings (the service propagates the
client's id through the JSON-lines protocol); spans opened without an
explicit id inherit the innermost enclosing span's id in the same context.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.telemetry.metrics import telemetry_enabled

__all__ = [
    "NULL_SPAN",
    "Span",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracing_enabled",
]

#: Finished spans a :class:`Tracer` keeps by default.  A served query
#: leaves about five records of roughly 330 bytes each, so the ring
#: holds the last ~1,600 queries in about 2.7 MB; retention, not
#: throughput, bounds a long-running server's memory.
DEFAULT_MAX_SPANS = 8192


@dataclass(slots=True)
class SpanRecord:
    """One finished span: wall-clock placement plus identity and labels."""

    name: str
    start: float
    duration: float
    span_id: int
    parent_id: Optional[int] = None
    trace_id: Optional[str] = None
    thread: str = ""
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class Span:
    """Live span handed out by :meth:`Tracer.span`; a context manager.

    On exit the span *is* its own finished record — it carries the same
    fields as :class:`SpanRecord` and lands in the ring buffer directly,
    so the hot path allocates one object per span, not two.
    """

    __slots__ = (
        "_tracer",
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "attributes",
        "start",
        "duration",
        "thread",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: Optional[str],
        attributes: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self.trace_id = trace_id
        self.attributes = attributes
        self.start = 0.0
        self.duration = 0.0
        self.thread = ""

    @property
    def end(self) -> float:
        return self.start + self.duration

    def set(self, **attributes: object) -> None:
        """Attach attributes discovered mid-span (batch size, pass count)."""
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack.get()
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            if self.trace_id is None:
                self.trace_id = parent.trace_id
        elif self.trace_id is None:
            self.trace_id = tracer._trace_id.get()
        tracer._stack.set(stack + (self,))
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self.start
        # The stack is an immutable tuple: a task's copy of its
        # creator's context must not see this context's pushes and pops.
        var = self._tracer._stack
        stack = var.get()
        if stack and stack[-1] is self:
            var.set(stack[:-1])
        else:  # exited out of order
            var.set(tuple(span for span in stack if span is not self))
        self.duration = duration
        self.thread = threading.current_thread().name
        self._tracer._record(self)


class _NullSpan:
    __slots__ = ()

    def set(self, **attributes: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: Shared disabled span — the only object a disabled tracer ever returns.
NULL_SPAN = _NullSpan()


class _TraceContext:
    """Context manager binding the current trace id in this context."""

    __slots__ = ("_tracer", "_trace_id", "_token")

    def __init__(self, tracer: "Tracer", trace_id: Optional[str]) -> None:
        self._tracer = tracer
        self._trace_id = trace_id

    def __enter__(self) -> "_TraceContext":
        self._token = self._tracer._trace_id.set(self._trace_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._trace_id.reset(self._token)


class Tracer:
    """Factory for spans; owns the ring buffer of finished records."""

    def __init__(
        self,
        enabled: Optional[bool] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
        sink: Optional[Callable[[SpanRecord], None]] = None,
    ) -> None:
        self.enabled = telemetry_enabled() if enabled is None else enabled
        self._spans: Deque[SpanRecord] = deque(maxlen=max_spans)
        self._stack: contextvars.ContextVar[Tuple[Span, ...]] = (
            contextvars.ContextVar("repro_span_stack", default=())
        )
        self._trace_id: contextvars.ContextVar[Optional[str]] = (
            contextvars.ContextVar("repro_trace_id", default=None)
        )
        self._ids = itertools.count(1)
        self._sink = sink
        self._lock = threading.Lock()

    def span(
        self, name: str, trace_id: Optional[str] = None, **attributes: object
    ):
        """Open a span; returns :data:`NULL_SPAN` while disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, trace_id, attributes)

    def trace(self, trace_id: Optional[str]) -> _TraceContext:
        """Bind a trace id to the current context for nested spans."""
        return _TraceContext(self, trace_id)

    def current_trace_id(self) -> Optional[str]:
        stack = self._stack.get()
        if stack:
            return stack[-1].trace_id
        return self._trace_id.get()

    def record(
        self,
        name: str,
        start: float,
        duration: float,
        trace_id: Optional[str] = None,
        **attributes: object,
    ) -> None:
        """Record an already-measured interval as a finished span (used
        for retroactive spans like per-request queue wait, where the
        region was timed before its trace context was at hand)."""
        if not self.enabled:
            return
        self._record(
            SpanRecord(
                name=name,
                start=start,
                duration=duration,
                span_id=next(self._ids),
                trace_id=trace_id,
                thread=threading.current_thread().name,
                attributes=dict(attributes),
            )
        )

    def _record(self, record: "Span | SpanRecord") -> None:
        with self._lock:
            self._spans.append(record)
        sink = self._sink
        if sink is not None:
            sink(record)

    def set_sink(
        self, sink: Optional[Callable[[SpanRecord], None]]
    ) -> None:
        self._sink = sink

    def spans(self) -> List["Span | SpanRecord"]:
        """Snapshot of the finished-span ring buffer, oldest first.

        Entries are finished :class:`Span` objects (which carry the
        full record field set) or :class:`SpanRecord` instances from
        :meth:`record`; exporters treat them interchangeably."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer used by the library's instrumentation."""
    return _GLOBAL_TRACER


def set_tracing_enabled(enabled: bool) -> None:
    _GLOBAL_TRACER.enabled = enabled
