"""Parallel experiment runtime: fault-tolerant process-pool execution.

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
  eviction with checkpoint pinning, corrupt-blob quarantine, and a
  per-shard resumable integrity scrub.

Telemetry lives in :mod:`repro.obs`: the executor propagates the
driver's trace context into workers, so worker spans nest under the
driver's ``runtime/map`` span.
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
    "ShardedStore",
    "StoreEntry",
    "content_hash",
    "corrupt_cache_entry",
    "parallel_map",
    "resolve_jobs",
]
