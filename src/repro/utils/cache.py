"""Disk caching of expensive artifacts keyed by stable config hashes.

Trained models and attack sweeps dominate experiment wall-clock; the
benchmarks for 7 tables and 13 figures share one pool of artifacts through
this cache.  Keys are derived from :func:`stable_hash`, which canonicalizes
nested dict/list/tuple/scalar configs into JSON and hashes with SHA-256, so
the same logical config always maps to the same file across processes.

Array artifacts live in :class:`repro.runtime.store.ShardedStore`: they
are content-addressed (``shards/<shard>/<hash>.npz``), identical payloads
are deduplicated across cells, and total size can be bounded by LRU
eviction.  :class:`DiskCache` is the public API — a thin facade — and
small JSON documents (checkpoint manifests, scenario outcomes) sit
beside the store at ``<root>/<namespace>/<key>.json``.

The store is safe for concurrent writers (the parallel runtime fans
attack cells out across processes that share one cache root): every
write lands in a uniquely-named temp file in the destination directory,
is fsync'd, and is published with an atomic ``os.replace``.  Readers
treat any unreadable entry — e.g. a torn copy of a blob — as a miss:
the blob is quarantined for post-mortem (a corrupt JSON document is
discarded) and the artifact is recomputed and rewritten instead of
poisoning the run.  Per-instance :class:`CacheStats` counters expose
hit/miss/byte traffic for telemetry and debugging.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.obs import counter
from repro.runtime.store import CacheStats, ShardedStore, atomic_write
from repro.utils.logging import get_logger

log = get_logger(__name__)

__all__ = ["CacheStats", "DiskCache", "default_cache", "stable_hash"]


def _canonicalize(obj: Any) -> Any:
    """Convert a config object to a JSON-serializable canonical form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr keeps full precision and is stable across platforms for
        # the magnitudes used in configs.
        return ("__float__", repr(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return ("__float__", repr(float(obj)))
    if isinstance(obj, np.ndarray):
        return ("__ndarray__", obj.shape, str(obj.dtype), hashlib.sha256(obj.tobytes()).hexdigest())
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    # Fall back to the type name + repr for simple value objects.
    return (type(obj).__name__, repr(obj))


def stable_hash(config: Any, length: int = 16) -> str:
    """Return a hex digest of a canonicalized config object.

    The digest is stable across processes and platforms for configs built
    from dicts, lists, tuples, scalars and ndarrays.
    """
    blob = json.dumps(_canonicalize(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


class DiskCache:
    """Array/JSON artifact cache: the public facade over the sharded store.

    Each array entry is a dict of ndarrays (plus a JSON metadata sidecar)
    addressed by ``(namespace, key)``; the bytes live in a
    content-addressed :class:`~repro.runtime.store.ShardedStore` (dedup,
    LRU eviction, quarantine).  Writes are atomic and readers self-heal:
    unreadable entries are quarantined and surface as misses (see the
    module docstring for the concurrency contract).

    Args:
        root: cache directory (default ``$REPRO_CACHE_DIR`` or
            ``.repro_cache``).
        shards: shard fan-out of the store.
        max_bytes: optional stored-bytes cap enforced by LRU eviction.
    """

    def __init__(self, root: Optional[os.PathLike] = None, *,
                 shards: int = 256, max_bytes: Optional[int] = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
        self.root = Path(root)
        self.stats = CacheStats()
        self._store = ShardedStore(self.root, shards=shards,
                                   max_bytes=max_bytes, stats=self.stats)
        self._hits = counter("cache/hits")
        self._misses = counter("cache/misses")
        self._writes = counter("cache/writes")

    @property
    def store(self) -> ShardedStore:
        """The sharded store holding the array artifacts."""
        return self._store

    def _path(self, namespace: str, key: str) -> Path:
        """The content-addressed blob of a stored key (KeyError if the
        key is unknown) — what corruption-injection tooling targets."""
        return self._store.artifact_path(namespace, key)

    def contains(self, namespace: str, key: str) -> bool:
        return self._store.contains(namespace, key)

    def save(self, namespace: str, key: str, arrays: Dict[str, np.ndarray],
             meta: Optional[Dict[str, Any]] = None) -> Path:
        """Atomically store a dict of arrays under (namespace, key).

        Returns the path of the stored content-addressed blob.
        """
        path = self._store.put(namespace, key, arrays, meta=meta)
        self._writes.inc()
        return path

    def load(self, namespace: str, key: str) -> Dict[str, np.ndarray]:
        """Load a dict of arrays; raises KeyError if absent or unreadable.

        A truncated or corrupt blob (e.g. a torn copy) is quarantined and
        reported as a miss rather than crashing the run.
        """
        try:
            arrays = self._store.get(namespace, key)
        except KeyError:
            self._misses.inc()
            raise
        self._hits.inc()
        return arrays

    # ------------------------------------------------------------------
    # Small JSON documents (checkpoint manifests, run metadata)
    # ------------------------------------------------------------------
    def _json_path(self, namespace: str, key: str) -> Path:
        return self.root / namespace / f"{key}.json"

    def save_json(self, namespace: str, key: str, obj: Dict[str, Any]) -> Path:
        """Atomically store a JSON document under (namespace, key).

        Same crash-safety contract as :meth:`save`: the document is
        published whole or not at all, so a checkpoint manifest can be
        rewritten after every completed sweep cell without a kill window
        ever leaving a torn file behind.  JSON documents live outside
        the store at ``<root>/<namespace>/<key>.json`` — they are tiny
        and human-inspectable.
        """
        path = self._json_path(namespace, key)
        blob = json.dumps(obj, indent=2, sort_keys=True,
                          default=str).encode("utf-8")
        written = atomic_write(path, lambda fh: fh.write(blob),
                               suffix=".json.tmp")
        self.stats.writes += 1
        self.stats.bytes_written += written
        self._writes.inc()
        return path

    def load_json(self, namespace: str, key: str) -> Dict[str, Any]:
        """Load a JSON document; raises KeyError if absent or unreadable.

        A corrupt document (torn write, injected fault) is discarded and
        surfaces as a miss, mirroring :meth:`load`.
        """
        path = self._json_path(namespace, key)
        if not path.exists():
            self.stats.misses += 1
            self._misses.inc()
            raise KeyError(f"cache miss: {namespace}/{key}")
        try:
            size = path.stat().st_size
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self.stats.stale_discards += 1
            self.stats.misses += 1
            self._misses.inc()
            log.warning("discarding unreadable cache json %s/%s: %s",
                        namespace, key, type(exc).__name__)
            try:
                path.unlink()
            except OSError:
                pass
            raise KeyError(
                f"cache json unreadable: {namespace}/{key}") from None
        self.stats.hits += 1
        self._hits.inc()
        self.stats.bytes_read += size
        return obj

    def load_meta(self, namespace: str, key: str) -> Dict[str, Any]:
        return self._store.get_meta(namespace, key)

    def get_or_compute(self, namespace: str, key: str,
                       compute: Callable[[], Dict[str, np.ndarray]],
                       meta: Optional[Dict[str, Any]] = None) -> Dict[str, np.ndarray]:
        """Return the cached arrays, computing and storing them on a miss."""
        try:
            return self.load(namespace, key)
        except KeyError:
            pass
        log.info("cache miss %s/%s — computing", namespace, key)
        arrays = compute()
        if not isinstance(arrays, dict):
            raise TypeError("compute() must return a dict of ndarrays")
        self.save(namespace, key, arrays, meta=meta)
        return arrays

    # ------------------------------------------------------------------
    # Eviction pinning
    # ------------------------------------------------------------------
    def pin(self, namespace: str, key: str) -> None:
        """Protect an entry from LRU eviction while a sweep checkpoint
        still references it."""
        self._store.pin(namespace, key)

    def unpin(self, namespace: str, key: str) -> None:
        self._store.unpin(namespace, key)

    def clear(self, namespace: Optional[str] = None) -> int:
        """Delete cached entries and JSON documents (one namespace, or
        everything); returns the number of files removed."""
        removed = self._store.clear(namespace)
        if namespace is not None:
            for path in sorted((self.root / namespace).rglob("*.json")):
                path.unlink()
                removed += 1
        return removed


_DEFAULT: Optional[DiskCache] = None


def default_cache() -> DiskCache:
    """Process-wide cache rooted at $REPRO_CACHE_DIR (default .repro_cache)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = DiskCache()
    return _DEFAULT
