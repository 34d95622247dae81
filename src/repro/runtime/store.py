"""Content-addressed, sharded artifact store with LRU eviction and dedup.

Million-cell sweeps outgrow a flat one-file-per-key cache directory:
a single directory with 10^6 entries makes every listing and fsync
slow, identical artifacts (e.g. the C&W cell crafted once per β row)
are stored once per key, and nothing bounds total disk usage.  This
module is the storage engine behind :class:`repro.utils.cache.DiskCache`
(which keeps its public API as a thin facade):

* **Content addressing + sharding** — every artifact (a dict of
  ndarrays) is hashed over its canonical contents and stored once as
  ``shards/<shard>/<hash>.npz``; the shard directory is derived from
  the hash, so no directory ever holds more than ~``n/shards`` blobs.
* **Per-entry manifest** — each logical ``(namespace, key)`` maps to a
  small JSON *entry* document under ``manifest/<shard>/``, written with
  the same atomic temp-file + fsync + rename protocol as the blobs.
  One file per entry means concurrent writers of distinct keys never
  contend and a torn write can only ever affect one entry.
* **Cross-cell dedup** — two keys whose artifacts are byte-identical
  share one blob; eviction and byte accounting are refcount-aware.
* **Size-bounded LRU eviction** — with ``max_bytes`` set, least
  recently *read* entries are dropped after each put until stored
  bytes fit the cap.  Entries pinned by an in-flight sweep checkpoint
  are never evicted.
* **Integrity scrub with per-shard resume** — :meth:`verify` walks the
  manifest shard by shard, quarantines unreadable blobs, and
  checkpoints its progress in an atomically-rewritten scrub manifest
  (the PR 2 self-heal/checkpoint pattern), so an interrupted scrub
  resumes from the last clean shard.

Self-healing: any unreadable entry or blob surfaces as a miss
(``KeyError``), is quarantined or discarded, and the artifact is
recomputed — never poisoning the run.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import os
import re
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.obs import counter, event
from repro.utils.logging import get_logger

log = get_logger(__name__)

__all__ = [
    "CacheStats",
    "ShardedStore",
    "StoreEntry",
    "atomic_write",
    "content_hash",
]

#: Length (hex chars) of the content hash used for blob names.
HASH_LEN = 32


@dataclasses.dataclass
class CacheStats:
    """Traffic counters shared by a store and its :class:`DiskCache` facade."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    stale_discards: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    dedup_hits: int = 0
    evictions: int = 0
    bytes_reclaimed: int = 0
    quarantined: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["hit_rate"] = round(self.hit_rate, 4)
        return data

    def reset(self) -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)

    def __str__(self) -> str:
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"writes={self.writes}, stale={self.stale_discards}, "
                f"dedup={self.dedup_hits}, evicted={self.evictions}, "
                f"read={self.bytes_read}B, written={self.bytes_written}B)")


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a just-renamed entry survives a power loss.

    ``os.replace`` makes the rename atomic against concurrent readers,
    but the *directory entry* itself is only durable once the directory
    inode reaches disk — without this, a kill at the wrong moment can
    roll a checkpoint manifest back to its previous (or no) version.
    Best-effort: platforms that cannot fsync a directory are skipped.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, write_fn: Callable[[Any], None],
                 suffix: str) -> int:
    """Write via unique temp file + fsync + rename + dir fsync; returns
    bytes written.

    Unique temp names make concurrent writers of the same key safe: each
    publishes a complete file and the last ``os.replace`` wins.  The file
    fsync closes the crash window where a rename could outlive its data;
    the directory fsync makes the rename itself durable.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=suffix)
    try:
        # mkstemp creates 0600; restore the umask-default perms a plain
        # open() would have given the destination file.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            write_fn(fh)
            fh.flush()
            os.fsync(fh.fileno())
        size = os.path.getsize(tmp)
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return size


def content_hash(arrays: Dict[str, np.ndarray], length: int = HASH_LEN) -> str:
    """Deterministic digest of a dict of ndarrays (names, dtypes, bytes).

    Hashing the *contents* rather than the serialized npz file keeps
    dedup independent of zip-container timestamps or compression
    details: two artifacts with identical arrays always share a blob.
    """
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode("utf-8"))
        h.update(str(a.dtype).encode("ascii"))
        h.update(repr(a.shape).encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()[:length]


_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def _safe_name(text: str, limit: int = 48) -> str:
    """Filesystem-safe, length-bounded rendition of a namespace/key."""
    return _SAFE.sub("_", text)[:limit] or "_"


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One manifest entry: a logical key resolved to a content hash."""

    namespace: str
    key: str
    content_hash: str
    size: int
    path: Path          # the entry document itself
    accessed: float     # LRU timestamp (entry-file mtime)

    @property
    def ident(self) -> Tuple[str, str]:
        return (self.namespace, self.key)


class ShardedStore:
    """Content-addressed npz blob store with manifest, dedup and eviction.

    Args:
        root: store root; blobs live under ``root/shards``, entry
            documents under ``root/manifest``, quarantined corrupt blobs
            under ``root/quarantine``.
        shards: fan-out of the shard directories (default 256).
        max_bytes: stored-byte cap enforced by LRU eviction after every
            put (None = unbounded).
        stats: a :class:`CacheStats` to account into (the
            :class:`~repro.utils.cache.DiskCache` facade shares its own).
    """

    def __init__(self, root: os.PathLike, *, shards: int = 256,
                 max_bytes: Optional[int] = None,
                 stats: Optional[CacheStats] = None):
        self.root = Path(root)
        self.shards = max(1, int(shards))
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {self.max_bytes}")
        self.stats = stats if stats is not None else CacheStats()
        self._shard_width = max(2, len(f"{self.shards - 1:x}"))
        self._pins: Set[Tuple[str, str]] = set()
        self._lock = threading.Lock()
        self._dedup = counter("store/dedup_hits")
        self._evicted = counter("store/evictions")
        self._reclaimed = counter("store/bytes_reclaimed")
        self._quarantined = counter("store/quarantined")

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def shards_dir(self) -> Path:
        return self.root / "shards"

    @property
    def manifest_dir(self) -> Path:
        return self.root / "manifest"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _shard_name(self, hex_digest: str) -> str:
        sid = int(hex_digest[:8], 16) % self.shards
        return f"{sid:0{self._shard_width}x}"

    def blob_path(self, digest: str) -> Path:
        return self.shards_dir / self._shard_name(digest) / f"{digest}.npz"

    def entry_path(self, namespace: str, key: str) -> Path:
        kh = hashlib.sha256(f"{namespace}/{key}".encode("utf-8")).hexdigest()
        name = f"{_safe_name(namespace)}--{_safe_name(key)}--{kh[:12]}.json"
        return self.manifest_dir / self._shard_name(kh) / name

    def artifact_path(self, namespace: str, key: str) -> Path:
        """The content-addressed blob of a stored key (KeyError if the
        key is unknown)."""
        entry = self._read_entry(namespace, key)
        if entry is None:
            raise KeyError(f"no stored artifact: {namespace}/{key}")
        return self.blob_path(entry.content_hash)

    # ------------------------------------------------------------------
    # Entry documents
    # ------------------------------------------------------------------
    def _read_entry(self, namespace: str, key: str) -> Optional[StoreEntry]:
        path = self.entry_path(namespace, key)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            return StoreEntry(namespace=doc["namespace"], key=doc["key"],
                              content_hash=doc["hash"], size=int(doc["size"]),
                              path=path, accessed=path.stat().st_mtime)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, KeyError, ValueError,
                UnicodeDecodeError) as exc:
            # A torn entry document: drop it so the artifact is
            # recomputed (the blob, if healthy, is re-adopted on rewrite
            # via dedup).
            log.warning("discarding unreadable store entry %s/%s: %s",
                        namespace, key, type(exc).__name__)
            self.stats.stale_discards += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _write_entry(self, namespace: str, key: str, digest: str,
                     size: int) -> None:
        doc = {"namespace": namespace, "key": key, "hash": digest,
               "size": int(size), "created": time.time()}
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        atomic_write(self.entry_path(namespace, key),
                     lambda fh: fh.write(blob), suffix=".entry.tmp")

    def entries(self, namespace: Optional[str] = None) -> List[StoreEntry]:
        """Every manifest entry (optionally one namespace), oldest-read
        first — the LRU eviction order."""
        found: List[StoreEntry] = []
        if not self.manifest_dir.exists():
            return found
        for path in self.manifest_dir.glob("*/*.json"):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                entry = StoreEntry(
                    namespace=doc["namespace"], key=doc["key"],
                    content_hash=doc["hash"], size=int(doc["size"]),
                    path=path, accessed=path.stat().st_mtime)
            except (OSError, json.JSONDecodeError, KeyError, ValueError,
                    UnicodeDecodeError):
                continue
            if namespace is None or entry.namespace == namespace:
                found.append(entry)
        found.sort(key=lambda e: (e.accessed, str(e.path)))
        return found

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def put(self, namespace: str, key: str, arrays: Dict[str, np.ndarray],
            meta: Optional[Dict[str, Any]] = None) -> Path:
        """Store an artifact; dedups against identical content.

        Returns the blob path (so fault tooling can corrupt/inspect the
        real artifact).  The blob is written first, then the entry
        document, so a crash between the two leaves only an orphan blob
        — never a dangling entry.
        """
        digest = content_hash(arrays)
        blob = self.blob_path(digest)
        written = 0
        if blob.exists():
            self.stats.dedup_hits += 1
            self._dedup.inc()
        else:
            written += atomic_write(blob, lambda fh: np.savez(fh, **arrays),
                                    suffix=".npz.tmp")
        if meta is not None:
            payload = json.dumps(meta, indent=2, default=str).encode("utf-8")
            written += atomic_write(blob.with_suffix(".json"),
                                    lambda fh: fh.write(payload),
                                    suffix=".json.tmp")
        size = os.path.getsize(blob)
        self._write_entry(namespace, key, digest, size)
        self.stats.writes += 1
        self.stats.bytes_written += written
        if self.max_bytes is not None:
            self.evict(self.max_bytes)
        return blob

    def get(self, namespace: str, key: str) -> Dict[str, np.ndarray]:
        """Load an artifact; raises KeyError if absent or unreadable.

        An unreadable blob is quarantined (moved aside for post-mortem,
        never re-read) and its entry dropped, so the artifact surfaces
        as a miss and is recomputed.
        """
        entry = self._read_entry(namespace, key)
        if entry is None:
            self.stats.misses += 1
            raise KeyError(f"cache miss: {namespace}/{key}")
        blob = self.blob_path(entry.content_hash)
        try:
            size = blob.stat().st_size
            with np.load(blob, allow_pickle=False) as data:
                arrays = {name: data[name] for name in data.files}
        except Exception as exc:
            self._quarantine_blob(entry, f"{type(exc).__name__}: {exc}")
            self.stats.misses += 1
            raise KeyError(
                f"cache entry unreadable: {namespace}/{key}") from None
        self.stats.hits += 1
        self.stats.bytes_read += size
        self._touch(entry.path)
        return arrays

    def get_meta(self, namespace: str, key: str) -> Dict[str, Any]:
        entry = self._read_entry(namespace, key)
        if entry is None:
            raise KeyError(f"cache meta miss: {namespace}/{key}")
        sidecar = self.blob_path(entry.content_hash).with_suffix(".json")
        if not sidecar.exists():
            raise KeyError(f"cache meta miss: {namespace}/{key}")
        try:
            return json.loads(sidecar.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._quarantine_blob(entry, f"meta {type(exc).__name__}")
            raise KeyError(
                f"cache meta unreadable: {namespace}/{key}") from None

    def contains(self, namespace: str, key: str) -> bool:
        return self.entry_path(namespace, key).exists()

    def delete(self, namespace: str, key: str) -> int:
        """Remove one entry (and its blob if unreferenced); returns files
        removed."""
        removed = 0
        entry = self._read_entry(namespace, key)
        if entry is not None:
            removed, _ = self._remove_entry(
                entry, self._blob_refs(self.entries()))
        self._pins.discard((namespace, key))
        return removed

    def _touch(self, entry_file: Path) -> None:
        """Refresh an entry's LRU timestamp (best-effort)."""
        try:
            os.utime(entry_file, None)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Pinning (checkpoint integration)
    # ------------------------------------------------------------------
    def pin(self, namespace: str, key: str) -> None:
        """Protect an entry from eviction (an in-flight sweep checkpoint
        still references it)."""
        self._pins.add((namespace, key))

    def unpin(self, namespace: str, key: str) -> None:
        self._pins.discard((namespace, key))

    @property
    def pinned(self) -> Set[Tuple[str, str]]:
        return set(self._pins)

    # ------------------------------------------------------------------
    # Accounting, eviction, dedup reporting
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Bytes actually stored (each deduped blob counted once)."""
        if not self.shards_dir.exists():
            return 0
        return sum(p.stat().st_size
                   for p in self.shards_dir.glob("*/*.npz") if p.is_file())

    def logical_bytes(self) -> int:
        """Bytes stored without dedup (each entry counted)."""
        return sum(e.size for e in self.entries())

    def dedup_report(self) -> Dict[str, Any]:
        """Logical vs stored bytes and the savings dedup buys."""
        entries = self.entries()
        logical = sum(e.size for e in entries)
        stored = self.total_bytes()
        saved = max(0, logical - stored)
        return {
            "entries": len(entries),
            "unique_blobs": len({e.content_hash for e in entries}),
            "logical_bytes": logical,
            "stored_bytes": stored,
            "saved_bytes": saved,
            "saved_pct": round(100.0 * saved / logical, 2) if logical else 0.0,
        }

    def evict(self, max_bytes: Optional[int] = None) -> int:
        """Drop least-recently-read unpinned entries until stored bytes
        fit ``max_bytes``; returns entries evicted.

        Dedup-aware: a shared blob is deleted only when its last entry
        goes.  Pinned entries are skipped unconditionally — a cap that
        cannot be met without dropping pinned data is left exceeded
        (with a warning) rather than violating the checkpoint contract.
        """
        cap = self.max_bytes if max_bytes is None else int(max_bytes)
        if cap is None:
            return 0
        started = time.monotonic()
        with self._lock:
            total = self.total_bytes()
            if total <= cap:
                return 0
            entries = self.entries()
            refs = self._blob_refs(entries)
            evicted = 0
            reclaimed = 0
            for e in entries:              # oldest-read first
                if total <= cap:
                    break
                if e.ident in self._pins:
                    continue
                _, freed = self._remove_entry(e, refs)
                total -= freed
                reclaimed += freed
                evicted += 1
                self.stats.evictions += 1
                self._evicted.inc()
            self.stats.bytes_reclaimed += reclaimed
            if reclaimed:
                self._reclaimed.inc(reclaimed)
            if evicted:
                event("store/evict",
                      duration_s=time.monotonic() - started,
                      evicted=evicted, bytes_reclaimed=reclaimed)
            if total > cap:
                log.warning(
                    "store over cap after eviction (%d > %d bytes): "
                    "%d pinned entries held", total, cap, len(self._pins))
                event("store/over_cap", over_bytes=total - cap,
                      pinned=len(self._pins))
            return evicted

    @staticmethod
    def _blob_refs(entries: Iterable[StoreEntry]) -> Dict[str, int]:
        """Manifest entries per blob hash."""
        return collections.Counter(e.content_hash for e in entries)

    def _remove_entry(self, entry: StoreEntry, refs: Dict[str, int]
                      ) -> Tuple[int, int]:
        """Unlink one entry document, and its blob once no other entry
        references it; returns ``(files removed, blob bytes freed)``.

        ``refs`` (from :meth:`_blob_refs`) is decremented in place, so
        one manifest pass serves a whole batch of removals.
        """
        removed = freed = 0
        try:
            entry.path.unlink()
            removed += 1
        except OSError:
            pass
        refs[entry.content_hash] -= 1
        if refs[entry.content_hash] <= 0:
            blob = self.blob_path(entry.content_hash)
            if blob.is_file():
                freed = blob.stat().st_size
            for victim in (blob, blob.with_suffix(".json")):
                if victim.is_file():
                    victim.unlink()
                    removed += 1
        return removed, freed

    # ------------------------------------------------------------------
    # Self-healing, quarantine, integrity scrub
    # ------------------------------------------------------------------
    def _quarantine_blob(self, entry: StoreEntry, reason: str) -> None:
        """Move an unreadable blob aside and drop its entries."""
        blob = self.blob_path(entry.content_hash)
        log.warning("quarantining unreadable blob %s (%s/%s): %s",
                    entry.content_hash, entry.namespace, entry.key, reason)
        self.stats.stale_discards += 1
        if blob.is_file():
            try:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                os.replace(blob, self.quarantine_dir / blob.name)
                self.stats.quarantined += 1
                self._quarantined.inc()
            except OSError:
                try:
                    blob.unlink()
                except OSError:
                    pass
        sidecar = blob.with_suffix(".json")
        try:
            sidecar.unlink()
        except OSError:
            pass
        # Every entry that resolved to the dead blob is now dangling.
        for e in self.entries():
            if e.content_hash == entry.content_hash:
                try:
                    e.path.unlink()
                except OSError:
                    pass

    @property
    def scrub_path(self) -> Path:
        return self.manifest_dir / "_scrub.json"

    def verify(self, *, resume: bool = False) -> Dict[str, Any]:
        """Scrub the manifest: every entry must resolve to a readable blob.

        Corrupt blobs are quarantined and their entries dropped; dangling
        entries (blob missing) are dropped.  Progress is checkpointed
        per manifest shard in an atomically-rewritten scrub manifest, so
        ``resume=True`` skips shards already verified clean — the same
        resume contract as the sweep checkpoints.
        """
        state: Dict[str, Any] = {"status": "running", "shards": {}}
        if resume and self.scrub_path.exists():
            try:
                prior = json.loads(self.scrub_path.read_text(encoding="utf-8"))
                state["shards"] = dict(prior.get("shards", {}))
            except (OSError, json.JSONDecodeError):
                pass
        checked = quarantined = dangling = skipped = 0
        by_shard: Dict[str, List[StoreEntry]] = {}
        for e in self.entries():
            by_shard.setdefault(e.path.parent.name, []).append(e)
        for shard in sorted(by_shard):
            prior = state["shards"].get(shard)
            if resume and prior and prior.get("status") == "clean":
                skipped += len(by_shard[shard])
                continue
            shard_quarantined = shard_dangling = 0
            for e in by_shard[shard]:
                checked += 1
                blob = self.blob_path(e.content_hash)
                if not blob.is_file():
                    try:
                        e.path.unlink()
                    except OSError:
                        pass
                    self.stats.stale_discards += 1
                    shard_dangling += 1
                    continue
                try:
                    with np.load(blob, allow_pickle=False) as data:
                        for name in data.files:
                            data[name]
                except Exception as exc:
                    self._quarantine_blob(e, f"{type(exc).__name__}: {exc}")
                    shard_quarantined += 1
            quarantined += shard_quarantined
            dangling += shard_dangling
            state["shards"][shard] = {
                "status": ("clean" if not (shard_quarantined or shard_dangling)
                           else "healed"),
                "entries": len(by_shard[shard]),
                "quarantined": shard_quarantined,
                "dangling": shard_dangling,
                "updated": time.time(),
            }
            self._save_scrub(state)
        state["status"] = "complete"
        self._save_scrub(state)
        return {"checked": checked, "skipped": skipped,
                "quarantined": quarantined, "dangling": dangling,
                "shards": len(by_shard)}

    def _save_scrub(self, state: Dict[str, Any]) -> None:
        blob = json.dumps(state, indent=2, sort_keys=True).encode("utf-8")
        atomic_write(self.scrub_path, lambda fh: fh.write(blob),
                     suffix=".json.tmp")

    # ------------------------------------------------------------------
    # Bulk removal
    # ------------------------------------------------------------------
    def clear(self, namespace: Optional[str] = None) -> int:
        """Delete stored entries (one namespace, or every file under the
        root); returns files removed.  A blob shared with an entry of
        another namespace stays."""
        removed = 0
        if namespace is None:
            if self.root.exists():
                for path in sorted(self.root.rglob("*")):
                    if path.is_file():
                        path.unlink()
                        removed += 1
            self._pins.clear()
            return removed
        entries = self.entries()
        refs = self._blob_refs(entries)
        for entry in entries:
            if entry.namespace == namespace:
                removed += self._remove_entry(entry, refs)[0]
                self._pins.discard(entry.ident)
        return removed
