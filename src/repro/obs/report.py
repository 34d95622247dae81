"""Reading and rendering observability logs: timings, fault summary, traces.

Two views over the same JSONL file:

* the flat per-stage aggregation (:func:`aggregate_events` /
  :func:`render_timings`) — every record has a ``stage`` name and an
  optional duration, whether it is a point event or a closed span;
* the hierarchical trace (:func:`build_span_tree` / :func:`render_trace`)
  — records carrying ``span`` ids are reassembled into parent/child
  trees spanning driver and worker processes.

:func:`load_events` is deliberately forgiving: a run killed mid-write
leaves a truncated final line (or, worse, a line torn inside a UTF-8
sequence), and older logs may hold any event shape.  Corrupt lines are
skipped and *counted* — the count rides on the returned list
(:class:`EventLog`), surfaces as a synthetic ``telemetry/skipped_lines``
row in :func:`aggregate_events`, and is called out by
:func:`render_timings`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.utils.logging import get_logger

log = get_logger(__name__)

#: Synthetic stage name under which skipped-line counts are reported.
SKIPPED_STAGE = "telemetry/skipped_lines"

#: Stages the executor's fault-tolerance layer emits; summarized
#: separately by :func:`render_fault_summary`.
FAULT_STAGES = ("runtime/retry", "runtime/timeout", "runtime/giveup",
                "sweep/cell_failed")


class EventLog(List[Dict[str, Any]]):
    """A list of parsed events plus the count of corrupt lines skipped."""

    skipped: int = 0


def load_events(path: Union[str, os.PathLike]) -> EventLog:
    """Parse an observability JSONL file, skipping unparseable lines.

    Tolerates the debris of crashed runs: a truncated or torn final
    line (including one cut inside a multi-byte UTF-8 sequence) is
    skipped, never raised on.  The number of skipped lines is available
    as ``.skipped`` on the returned :class:`EventLog`.
    """
    events = EventLog()
    path = Path(path)
    if not path.exists():
        return events
    try:
        raw = path.read_bytes()
    except OSError as exc:
        log.warning("could not read telemetry log %s: %s", path, exc)
        return events
    for line_bytes in raw.split(b"\n"):
        if not line_bytes.strip():
            continue
        try:
            event = json.loads(line_bytes.decode("utf-8").strip())
        except (json.JSONDecodeError, UnicodeDecodeError):
            events.skipped += 1
            log.warning("skipping malformed telemetry line: %.60s",
                        line_bytes.decode("utf-8", errors="replace"))
            continue
        if isinstance(event, dict) and "stage" in event:
            events.append(event)
    return events


# ----------------------------------------------------------------------
# Flat per-stage aggregation (the `timings` report)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class StageStats:
    """Aggregate of all events sharing one stage name."""

    stage: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def aggregate_events(events: Iterable[Dict[str, Any]]
                     ) -> Dict[str, StageStats]:
    """Fold events into per-stage statistics, keyed by stage name.

    When ``events`` is an :class:`EventLog` with corrupt lines skipped,
    the skip count is reported as a synthetic
    :data:`SKIPPED_STAGE` entry (count = lines skipped, zero time).
    """
    skipped = int(getattr(events, "skipped", 0) or 0)
    stats: Dict[str, StageStats] = {}
    worker_sets: Dict[str, set] = {}
    for event in events:
        name = str(event.get("stage"))
        entry = stats.setdefault(name, StageStats(stage=name))
        entry.count += 1
        duration = float(event.get("duration_s") or 0.0)
        entry.total_s += duration
        entry.max_s = max(entry.max_s, duration)
        cache = event.get("cache")
        if cache == "hit":
            entry.cache_hits += 1
        elif cache == "miss":
            entry.cache_misses += 1
        worker_sets.setdefault(name, set()).add(event.get("worker"))
    for name, entry in stats.items():
        entry.workers = len(worker_sets[name] - {None})
    if skipped:
        stats[SKIPPED_STAGE] = StageStats(stage=SKIPPED_STAGE, count=skipped)
    return stats


def render_fault_summary(events: Iterable[Dict[str, Any]]) -> Optional[str]:
    """One-line retry/timeout/giveup summary, or None if the run was clean."""
    counts = {stage: 0 for stage in FAULT_STAGES}
    for event in events:
        stage = event.get("stage")
        if stage in counts:
            counts[stage] += 1
    if not any(counts.values()):
        return None
    return ("fault events: "
            f"retries={counts['runtime/retry']} "
            f"timeouts={counts['runtime/timeout']} "
            f"giveups={counts['runtime/giveup']} "
            f"failed cells={counts['sweep/cell_failed']}")


def render_store_summary(events: Iterable[Dict[str, Any]]) -> Optional[str]:
    """One-line artifact-store eviction summary, or None if none ran.

    Folds the ``store/evict`` events emitted by
    :meth:`~repro.runtime.store.ShardedStore.evict` (entry and byte
    counts) and flags any ``store/over_cap`` events — a cap that could
    not be met without dropping pinned checkpoints.
    """
    passes = evicted = reclaimed = over_cap = 0
    for e in events:
        stage = e.get("stage")
        if stage == "store/evict":
            passes += 1
            evicted += int(e.get("evicted") or 0)
            reclaimed += int(e.get("bytes_reclaimed") or 0)
        elif stage == "store/over_cap":
            over_cap += 1
    if not passes and not over_cap:
        return None
    line = (f"store evictions: {evicted} entries in {passes} pass(es), "
            f"{reclaimed / 1e6:.2f} MB reclaimed")
    if over_cap:
        line += f"; {over_cap} over-cap pass(es) held back by pinned entries"
    return line


def render_timings(events: Iterable[Dict[str, Any]]) -> str:
    """Per-stage wall-clock table (sorted by total time, descending).

    Retry/timeout/giveup events from the fault-tolerance layer appear as
    ordinary stage rows and are additionally folded into a one-line
    summary appended below the table, as is the count of corrupt lines
    skipped by :func:`load_events`.
    """
    events = list(events) if not isinstance(events, EventLog) else events
    stats = sorted(aggregate_events(events).values(),
                   key=lambda s: s.total_s, reverse=True)
    if not stats:
        return "no telemetry events recorded"
    header = (f"{'stage':<28} {'calls':>6} {'total s':>9} {'mean s':>8} "
              f"{'max s':>8} {'hit':>5} {'miss':>5} {'wrk':>4}")
    lines = [header, "-" * len(header)]
    for s in stats:
        lines.append(
            f"{s.stage:<28} {s.count:>6d} {s.total_s:>9.3f} {s.mean_s:>8.3f} "
            f"{s.max_s:>8.3f} {s.cache_hits:>5d} {s.cache_misses:>5d} "
            f"{s.workers:>4d}")
    total = sum(s.total_s for s in stats)
    lines.append("-" * len(header))
    lines.append(f"{'total stage time':<28} {'':>6} {total:>9.3f}")
    faults = render_fault_summary(events)
    if faults:
        lines.append(faults)
    store = render_store_summary(events)
    if store:
        lines.append(store)
    skipped = int(getattr(events, "skipped", 0) or 0)
    if skipped:
        lines.append(f"{skipped} corrupt line(s) skipped "
                     "(crash mid-write?)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Hierarchical traces (the `trace` report)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SpanNode:
    """One reassembled span (or point event) in a trace tree."""

    name: str
    span_id: Optional[str]
    parent_id: Optional[str]
    trace_id: Optional[str]
    duration_s: float = 0.0
    ts: float = 0.0
    worker: Optional[int] = None
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    children: List["SpanNode"] = dataclasses.field(default_factory=list)

    @property
    def self_s(self) -> float:
        """Duration not covered by direct children (clamped at zero).

        Children that ran concurrently in worker processes can overlap
        (and out-sum) the parent, hence the clamp.
        """
        return max(0.0, self.duration_s
                   - sum(c.duration_s for c in self.children))


_META_KEYS = {"ts", "stage", "worker", "duration_s", "kind", "trace",
              "span", "parent"}


def span_events(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The subset of events that participate in a trace (have trace ids)."""
    return [e for e in events if e.get("trace") or e.get("span")]


def build_span_tree(events: Iterable[Dict[str, Any]]) -> List[SpanNode]:
    """Reassemble span records into trees; returns root nodes.

    Point events (a ``parent`` but no ``span`` id of their own) become
    leaf nodes.  Spans whose parent never closed (crashed driver) are
    promoted to roots rather than dropped.  Roots are ordered by start
    timestamp; children likewise.
    """
    nodes: Dict[str, SpanNode] = {}
    leaves: List[SpanNode] = []
    for e in events:
        if not (e.get("trace") or e.get("span")):
            continue
        node = SpanNode(
            name=str(e.get("stage")),
            span_id=e.get("span"),
            parent_id=e.get("parent"),
            trace_id=e.get("trace"),
            duration_s=float(e.get("duration_s") or 0.0),
            ts=float(e.get("ts") or 0.0),
            worker=e.get("worker"),
            attrs={k: v for k, v in e.items() if k not in _META_KEYS},
        )
        if node.span_id:
            nodes[node.span_id] = node
        else:
            leaves.append(node)
    roots: List[SpanNode] = []
    for node in list(nodes.values()) + leaves:
        parent = nodes.get(node.parent_id) if node.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)

    def _sort(children: List[SpanNode]) -> None:
        children.sort(key=lambda n: (n.ts, n.name))
        for child in children:
            _sort(child.children)

    _sort(roots)
    return roots


def tree_signature(roots: List[SpanNode]) -> Tuple:
    """Order-normalized structural signature of a span forest.

    Ignores ids, timestamps, durations and workers — two runs of the
    same work (e.g. ``jobs=1`` vs ``jobs=4``) produce the same
    signature even though scheduling reordered the spans.
    """
    def _sig(node: SpanNode) -> Tuple:
        return (node.name, tuple(sorted(_sig(c) for c in node.children)))

    return tuple(sorted(_sig(r) for r in roots))


def _format_node(node: SpanNode, count: int, total_s: float,
                 self_s: float) -> str:
    label = node.name
    if count > 1:
        label += f" ×{count}"
    parts = [f"total={total_s:.3f}s"]
    if count == 1:
        parts.append(f"self={self_s:.3f}s")
        interesting = {k: v for k, v in node.attrs.items()
                       if k in ("cache", "batch", "items", "jobs", "cells",
                                "kappa", "beta", "step", "dataset", "datasets",
                                "detected", "successes", "iterations")}
        if node.worker is not None:
            parts.append(f"pid={node.worker}")
        parts.extend(f"{k}={v}" for k, v in sorted(interesting.items()))
    else:
        parts.append(f"self={self_s:.3f}s")
        parts.append(f"mean={total_s / count:.3f}s")
    return f"{label}  [{', '.join(parts)}]"


def _render_group(nodes: List[SpanNode], prefix: str, collapse: bool,
                  max_depth: Optional[int], depth: int,
                  lines: List[str]) -> None:
    if max_depth is not None and depth >= max_depth:
        return
    if collapse:
        groups: Dict[str, List[SpanNode]] = {}
        for node in nodes:
            groups.setdefault(node.name, []).append(node)
        entries = [(group[0],                       # representative
                    len(group),
                    sum(n.duration_s for n in group),
                    sum(n.self_s for n in group),
                    [c for n in group for c in n.children])
                   for group in groups.values()]
    else:
        entries = [(node, 1, node.duration_s, node.self_s, node.children)
                   for node in nodes]
    for i, (node, count, total_s, self_s, children) in enumerate(entries):
        last = i == len(entries) - 1
        branch = "└─ " if last else "├─ "
        lines.append(prefix + branch
                     + _format_node(node, count, total_s, self_s))
        child_prefix = prefix + ("   " if last else "│  ")
        _render_group(children, child_prefix, collapse, max_depth,
                      depth + 1, lines)


def render_trace(events: Iterable[Dict[str, Any]], *, collapse: bool = True,
                 max_depth: Optional[int] = None) -> str:
    """ASCII span-tree report with per-node total/self times.

    With ``collapse=True`` (the default), sibling spans sharing a name —
    e.g. the dozens of ``sweep/cell`` spans under one sweep — fold into
    one ``name ×N`` line whose children are aggregated recursively;
    ``collapse=False`` renders every span.
    """
    roots = build_span_tree(events)
    if not roots:
        return ("no trace spans recorded "
                "(run with observability enabled first)")
    traces: Dict[str, List[SpanNode]] = {}
    for root in roots:
        traces.setdefault(root.trace_id or "?", []).append(root)
    lines: List[str] = []
    for trace_id, trace_roots in traces.items():
        n_spans = _count(trace_roots)
        lines.append(f"trace {trace_id}  ({n_spans} spans)")
        _render_group(trace_roots, "", collapse, max_depth, 0, lines)
    return "\n".join(lines)


def _count(nodes: List[SpanNode]) -> int:
    return sum(1 + _count(n.children) for n in nodes)
