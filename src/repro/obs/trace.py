"""Hierarchical tracing: spans with parent/child structure across processes.

A *span* is one timed, attributed node of a trace tree::

    with span("sweep/precompute", dataset="digits") as sp:
        sp["cells"] = 6
        with span("runtime/map", jobs=4):
            ...

Each span records a ``trace`` id (shared by every span of one logical
run), its own ``span`` id, and its ``parent`` span id; the current span
is tracked in a :class:`contextvars.ContextVar`, so nesting follows the
code's dynamic extent per thread/task.  Closed spans are emitted as one
JSONL line each through :mod:`repro.obs.sink`; the line carries the span
name under the legacy ``stage`` key, so the flat per-stage aggregation
(``repro-experiments timings``) keeps working on span logs, while
``repro-experiments trace`` reassembles the tree.

Cross-process propagation: :func:`current_trace_context` returns a
picklable :class:`TraceContext` carrier; ship it to a worker process in
the work payload and wrap the work in :func:`attach_trace_context` so
spans opened in the worker nest under the driver's span.  The
:class:`~repro.runtime.executor.ParallelExecutor` does this
automatically for every mapped item.

When no sink is configured every operation here is a cheap no-op: spans
are created but never assigned ids, never emitted, and never touch the
context variable — the instrumentation can stay in hot paths
unconditionally.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import time
from typing import Any, Dict, Iterator, NamedTuple, Optional

from repro.obs.sink import ObsSink, active_sink, base_record


class TraceContext(NamedTuple):
    """Picklable carrier of a span's identity (trace id + span id).

    Ship it into a worker process and wrap the work in
    :func:`attach_trace_context` so the worker's spans become children
    of the originating span.
    """

    trace_id: str
    span_id: str


def _new_id() -> str:
    return os.urandom(8).hex()


#: The innermost open span of the current thread/task (None at top level).
_CURRENT: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None)


class Span:
    """One node of a trace: name, ids, attributes, wall-clock duration.

    Supports dict-style attribute assignment (``sp["cache"] = "hit"``)
    so call sites can add fields discovered mid-span.  A span created
    while the sink is disabled has no ids and emits nothing, but is
    still safely writable.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "_sink", "_ts", "_t0", "_finished")

    def __init__(self, name: str, *, sink: Optional[ObsSink] = None,
                 parent: Optional[TraceContext] = None,
                 attrs: Optional[Dict[str, Any]] = None,
                 _emitting: bool = True):
        self.name = name
        self._sink = sink if sink is not None else active_sink()
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self._ts = time.time()
        self._t0 = time.perf_counter()
        self._finished = False
        if _emitting and self._sink.enabled:
            if parent is None:
                current = _CURRENT.get()
                parent = current.context if current is not None else None
            self.trace_id = parent.trace_id if parent else _new_id()
            self.span_id = _new_id()
            self.parent_id = parent.span_id if parent else None
        else:
            self.trace_id = None
            self.span_id = None
            self.parent_id = None

    # -- identity ------------------------------------------------------
    @property
    def context(self) -> Optional[TraceContext]:
        """This span's identity as a picklable carrier (None if disabled)."""
        if self.trace_id is None:
            return None
        return TraceContext(self.trace_id, self.span_id)

    @property
    def recording(self) -> bool:
        return self.span_id is not None

    # -- attributes ----------------------------------------------------
    def __setitem__(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __getitem__(self, key: str) -> Any:
        return self.attrs[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def update(self, **fields: Any) -> None:
        self.attrs.update(fields)

    # -- lifecycle -----------------------------------------------------
    def finish(self, **fields: Any) -> None:
        """Close the span and emit its record (idempotent)."""
        if self._finished:
            return
        self._finished = True
        self.attrs.update(fields)
        if not self.recording:
            return
        record = base_record(self.name,
                             duration_s=time.perf_counter() - self._t0,
                             **self.attrs)
        record["ts"] = round(self._ts, 6)
        record["kind"] = "span"
        record["trace"] = self.trace_id
        record["span"] = self.span_id
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        self._sink.emit_line(record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id})")


def start_span(name: str, *, sink: Optional[ObsSink] = None,
               parent: Optional[TraceContext] = None, **attrs: Any) -> Span:
    """Open a span *without* making it current (manual lifecycle).

    For work whose start and finish happen on different threads (e.g. a
    serving request enqueued by a handler thread and resolved by a
    worker thread): keep the returned span and call
    :meth:`Span.finish` when done.
    """
    return Span(name, sink=sink, parent=parent, attrs=attrs)


@contextlib.contextmanager
def span(name: str, *, sink: Optional[ObsSink] = None,
         parent: Optional[TraceContext] = None,
         **attrs: Any) -> Iterator[Span]:
    """Open a span around a block; it becomes the current span within.

    Yields the :class:`Span`; add attributes discovered mid-block with
    ``sp["key"] = value``.  The span is emitted on exit even if the
    block raises.
    """
    sp = Span(name, sink=sink, parent=parent, attrs=attrs)
    token = _CURRENT.set(sp) if sp.recording else None
    try:
        yield sp
    finally:
        if token is not None:
            _CURRENT.reset(token)
        sp.finish()


def current_span() -> Optional[Span]:
    """The innermost open span of this thread/task, or None."""
    return _CURRENT.get()


def current_trace_context() -> Optional[TraceContext]:
    """Picklable identity of the current span (None when no span is open)."""
    sp = _CURRENT.get()
    return sp.context if sp is not None else None


@contextlib.contextmanager
def attach_trace_context(ctx: Optional[TraceContext]) -> Iterator[None]:
    """Adopt a remote span as the current parent within a block.

    Used on the far side of a process (or thread) boundary: spans opened
    inside the block nest under ``ctx``.  A ``None`` context is a no-op,
    so call sites can pass whatever :func:`current_trace_context`
    returned without checking.
    """
    if ctx is None:
        yield
        return
    carrier = Span("<attached>", _emitting=False)
    carrier.trace_id, carrier.span_id = ctx.trace_id, ctx.span_id
    token = _CURRENT.set(carrier)
    try:
        yield
    finally:
        _CURRENT.reset(token)


def event(name: str, duration_s: Optional[float] = None, *,
          sink: Optional[ObsSink] = None, **fields: Any) -> None:
    """Emit one point event (no children) under the current span.

    The record carries the current trace id and the current span id as
    its ``parent``, so events interleave into the span tree; with no
    open span it is a bare flat event.
    """
    sink = sink if sink is not None else active_sink()
    if not sink.enabled:
        return
    record = base_record(name, duration_s=duration_s, **fields)
    current = _CURRENT.get()
    if current is not None and current.recording:
        record["trace"] = current.trace_id
        record["parent"] = current.span_id
    sink.emit_line(record)


def record_span(name: str, duration_s: float, *,
                sink: Optional[ObsSink] = None, **attrs: Any) -> None:
    """Record an already-measured interval as a child of the current span.

    For stages whose timing is produced elsewhere (e.g. the per-stage
    latencies a batched MagNet pass reports): emits a complete span with
    the given duration, parented under the current span.
    """
    sink = sink if sink is not None else active_sink()
    if not sink.enabled:
        return
    sp = Span(name, sink=sink, attrs=attrs)
    sp._ts = time.time() - duration_s
    sp._t0 = time.perf_counter() - duration_s
    sp.finish()
