"""Parallel experiment runtime: fault-tolerant process-pool execution + telemetry.

The experiment pipeline — train classifier, train MagNet autoencoders,
craft C&W/EAD sweeps over (kappa, beta), score the oblivious defense —
is embarrassingly parallel per attack cell.  This package provides the
shared machinery:

* :class:`ParallelExecutor` / :func:`parallel_map` — order-preserving
  mapping with deterministic per-item seeding, so parallel runs are
  bitwise-identical to serial ones.  One supervised loop runs every
  map: in-process at ``jobs<=1``, one process-pool future per item at
  ``jobs>1`` (the pool's own queue keeps workers busy behind a
  straggler), with a serial fallback when the pool cannot run.  A
  :class:`RetryPolicy` sets its fault tolerance: per-item SIGALRM
  timeouts, bounded retry with exponential backoff, crashed-item
  re-dispatch, and terminal per-item :class:`ItemFailure` records
  instead of experiment-wide aborts.
* :class:`FaultPlan` — deterministic, seeded fault injection (worker
  crashes, hangs, transient exceptions, corrupted cache reads) keyed by
  item index, used by the chaos tests and the ``--inject-faults`` CLI
  flag.
* :class:`ShardedStore` — the content-addressed, sharded artifact store
  behind :class:`repro.utils.cache.DiskCache`: blobs at
  ``shards/<shard>/<hash>.npz``, cross-cell dedup, size-bounded LRU
  eviction with checkpoint pinning, corrupt-blob quarantine, a
  per-shard resumable integrity scrub, and transparent migration of
  flat-layout caches.
* :class:`RunTelemetry` / :func:`telemetry` — the *deprecated*
  string-keyed telemetry API, now a shim over :mod:`repro.obs` (spans,
  metrics, profiling).  New code should use
  :func:`repro.obs.configure_observability` + :func:`repro.obs.span` /
  :func:`repro.obs.event`; the executor propagates the driver's trace
  context into workers automatically, so worker spans nest under the
  driver's ``runtime/map`` span.  The read side (``load_events`` and
  friends) lives in :mod:`repro.obs.report` and is re-exported here.
"""

from repro.runtime.executor import (
    MAX_JOBS,
    ParallelExecutor,
    parallel_map,
    resolve_jobs,
)
from repro.runtime.store import (
    CacheStats,
    ShardedStore,
    StoreEntry,
    content_hash,
)
from repro.runtime.faults import (
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    ItemFailure,
    ItemTimeout,
    RetryPolicy,
    corrupt_cache_entry,
)
from repro.runtime.telemetry import (
    RunTelemetry,
    aggregate_events,
    configure_telemetry,
    load_events,
    render_fault_summary,
    render_timings,
    telemetry,
)

__all__ = [
    "CacheStats",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "ItemFailure",
    "ItemTimeout",
    "MAX_JOBS",
    "ParallelExecutor",
    "RetryPolicy",
    "RunTelemetry",
    "ShardedStore",
    "StoreEntry",
    "aggregate_events",
    "configure_telemetry",
    "content_hash",
    "corrupt_cache_entry",
    "load_events",
    "parallel_map",
    "render_fault_summary",
    "render_timings",
    "resolve_jobs",
    "telemetry",
]
