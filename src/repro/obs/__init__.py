"""Unified observability: hierarchical tracing, metrics, profiling hooks.

The experiment pipeline spans three layers — attack kernels, the
fault-tolerant parallel runtime, and the online serving frontend — and
``repro.obs`` is the one instrumentation surface all of them share:

* **Tracing** — :func:`span` context managers record trace/span/parent
  ids and wall-clock durations into an append-only JSONL log shared by
  driver and worker processes; :func:`current_trace_context` /
  :func:`attach_trace_context` carry the hierarchy across process
  boundaries (the :class:`~repro.runtime.executor.ParallelExecutor`
  does this automatically), so a sweep-cell span crafted in a worker
  nests under the driver's sweep span.  ``repro-experiments trace``
  renders the reassembled tree with self/total times.
* **Metrics** — a process-local registry of counters, gauges and
  histograms (``attack/iterations``, ``cache/hits``,
  ``serve/queue_depth``, ...) with lock-striped updates, a
  :func:`metrics_snapshot` API and a Prometheus text rendering served
  at ``/metrics`` by the HTTP frontend.
* **Profiling** — an opt-in :class:`SamplingProfiler` (wall-clock stack
  sampling) attachable around attack/training hot loops via
  :func:`profiled`.

Everything is disabled-by-default and near-free when disabled: enable
it with :func:`configure_observability` (or ``--telemetry`` on the
CLI).
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    metrics_registry,
    metrics_snapshot,
)
from repro.obs.profiler import SamplingProfiler, profiled
from repro.obs.report import (
    FAULT_STAGES,
    EventLog,
    SpanNode,
    StageStats,
    aggregate_events,
    build_span_tree,
    load_events,
    render_fault_summary,
    render_store_summary,
    render_timings,
    render_trace,
    span_events,
    tree_signature,
)
from repro.obs.sink import (
    TELEMETRY_ENV,
    ObsSink,
    active_sink,
    configure_observability,
)
from repro.obs.trace import (
    Span,
    TraceContext,
    attach_trace_context,
    current_span,
    current_trace_context,
    event,
    record_span,
    span,
    start_span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "EventLog",
    "FAULT_STAGES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSink",
    "SamplingProfiler",
    "Span",
    "SpanNode",
    "StageStats",
    "TELEMETRY_ENV",
    "TraceContext",
    "active_sink",
    "aggregate_events",
    "attach_trace_context",
    "build_span_tree",
    "configure_observability",
    "counter",
    "current_span",
    "current_trace_context",
    "event",
    "gauge",
    "histogram",
    "load_events",
    "metrics_registry",
    "metrics_snapshot",
    "profiled",
    "record_span",
    "render_fault_summary",
    "render_store_summary",
    "render_timings",
    "render_trace",
    "span",
    "span_events",
    "start_span",
    "tree_signature",
]
