"""Property and invariant tests for the content-addressed sharded store.

The hypothesis suites drive :class:`ShardedStore` through randomized
operation sequences and assert the two contracts the sweep machinery
leans on:

* every manifest entry resolves to a readable artifact, and stored
  bytes never exceed the configured cap (absent pins);
* LRU eviction never drops a pinned entry, no matter the pressure.

The example-based tests cover corrupt-blob quarantine accounting and
the per-shard resumable integrity scrub.
"""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.store import (
    CacheStats,
    ShardedStore,
    atomic_write,
    content_hash,
)
from repro.utils.cache import DiskCache

pytestmark = pytest.mark.tier1

# A small pool of distinct payloads; sizes differ so eviction pressure
# varies, and index 0 == index 1 content-wise to exercise dedup.
_PAYLOADS = [
    {"x": np.arange(64, dtype=np.float64)},
    {"x": np.arange(64, dtype=np.float64)},
    {"x": np.ones((32, 8), dtype=np.float32), "y": np.arange(5)},
    {"x": np.zeros(512, dtype=np.float64)},
    {"a": np.full(256, 7, dtype=np.int64)},
]
_KEYS = [f"k{i}" for i in range(6)]

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, len(_KEYS) - 1),
                  st.integers(0, len(_PAYLOADS) - 1)),
        st.tuples(st.just("get"), st.integers(0, len(_KEYS) - 1)),
        st.tuples(st.just("delete"), st.integers(0, len(_KEYS) - 1)),
    ),
    min_size=1, max_size=25,
)


def _blob_bytes(store):
    return sum(p.stat().st_size
               for p in store.shards_dir.glob("*/*.npz") if p.is_file())


class TestStoreInvariants:
    """Randomized sequences preserve the manifest/cap contract."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=_ops, cap_kib=st.integers(2, 12))
    def test_entries_resolve_and_bytes_bounded(self, ops, cap_kib):
        """Every manifest entry resolves to a readable artifact and
        total stored bytes stay <= the cap (the ISSUE 8 store invariant)."""
        with tempfile.TemporaryDirectory() as root:
            cap = cap_kib * 1024
            store = ShardedStore(root, shards=8, max_bytes=cap)
            model = {}
            for op in ops:
                if op[0] == "put":
                    _, ki, pi = op
                    store.put("ns", _KEYS[ki], _PAYLOADS[pi])
                    model[_KEYS[ki]] = pi
                elif op[0] == "get":
                    try:
                        store.get("ns", _KEYS[op[1]])
                    except KeyError:
                        pass
                else:
                    store.delete("ns", _KEYS[op[1]])
                    model.pop(_KEYS[op[1]], None)

            assert store.total_bytes() <= cap
            for entry in store.entries():
                arrays = store.get(entry.namespace, entry.key)
                want = _PAYLOADS[model[entry.key]]
                assert sorted(arrays) == sorted(want)
                for name in want:
                    np.testing.assert_array_equal(arrays[name], want[name])

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=_ops, pinned=st.sets(st.integers(0, len(_KEYS) - 1),
                                    min_size=1, max_size=3))
    def test_eviction_never_drops_pinned(self, ops, pinned):
        """Pinned entries survive arbitrary eviction pressure."""
        with tempfile.TemporaryDirectory() as root:
            # Cap far below the pinned payloads' footprint: every put
            # triggers eviction, so only the pin check protects them.
            store = ShardedStore(root, shards=8, max_bytes=1024)
            protected = {}
            for ki in sorted(pinned):
                payload = _PAYLOADS[ki % len(_PAYLOADS)]
                # Pin before put: put itself triggers eviction, and the
                # pin contract must already hold during that pass.
                store.pin("pinned", _KEYS[ki])
                store.put("pinned", _KEYS[ki], payload)
                protected[_KEYS[ki]] = payload
            for op in ops:
                if op[0] == "put":
                    store.put("ns", _KEYS[op[1]], _PAYLOADS[op[2]])
                elif op[0] == "get":
                    try:
                        store.get("ns", _KEYS[op[1]])
                    except KeyError:
                        pass
                else:
                    store.delete("ns", _KEYS[op[1]])

            for key, payload in protected.items():
                arrays = store.get("pinned", key)
                for name in payload:
                    np.testing.assert_array_equal(arrays[name], payload[name])

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(keys=st.sets(st.integers(0, len(_KEYS) - 1), min_size=2))
    def test_dedup_shares_one_blob(self, keys):
        """Identical payloads under distinct keys share a single blob."""
        with tempfile.TemporaryDirectory() as root:
            store = ShardedStore(root, shards=8)
            payload = {"x": np.arange(100, dtype=np.float64)}
            for ki in sorted(keys):
                store.put("ns", _KEYS[ki], payload)
            blobs = list(store.shards_dir.glob("*/*.npz"))
            assert len(blobs) == 1
            assert store.stats.dedup_hits == len(keys) - 1
            report = store.dedup_report()
            assert report["entries"] == len(keys)
            assert report["unique_blobs"] == 1
            assert report["saved_pct"] > 0


class TestContentHash:
    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=32))
    def test_deterministic_and_content_sensitive(self, values):
        a = {"x": np.array(values, dtype=np.int64)}
        b = {"x": np.array(values, dtype=np.int64)}
        assert content_hash(a) == content_hash(b)
        mutated = {"x": np.array(values, dtype=np.int64)}
        mutated["x"][0] += 1
        assert content_hash(a) != content_hash(mutated)

    def test_name_and_dtype_matter(self):
        x = np.arange(8, dtype=np.int64)
        assert content_hash({"x": x}) != content_hash({"y": x})
        assert (content_hash({"x": x})
                != content_hash({"x": x.astype(np.float64)}))


class TestQuarantine:
    def test_corrupt_blob_quarantined_with_stats(self, tmp_path):
        store = ShardedStore(tmp_path, shards=8)
        blob = store.put("ns", "k", {"x": np.arange(16)})
        blob.write_bytes(b"\x00corrupt")
        with pytest.raises(KeyError):
            store.get("ns", "k")
        assert store.stats.quarantined == 1
        assert store.stats.stale_discards == 1
        assert store.stats.misses == 1
        quarantined = list(store.quarantine_dir.glob("*.npz"))
        assert [p.name for p in quarantined] == [blob.name]
        assert not blob.exists()
        assert store.entries() == []
        # The key recomputes cleanly afterwards.
        store.put("ns", "k", {"x": np.arange(16)})
        assert sorted(store.get("ns", "k")) == ["x"]

    def test_verify_scrub_resume_skips_clean_shards(self, tmp_path):
        store = ShardedStore(tmp_path, shards=4)
        for i in range(8):
            store.put("ns", f"k{i}", {"x": np.arange(8) + i})
        report = store.verify()
        assert report["checked"] == 8
        assert report["quarantined"] == 0
        state = json.loads(store.scrub_path.read_text())
        assert state["status"] == "complete"
        assert all(s["status"] == "clean" for s in state["shards"].values())
        # Resume skips every already-clean shard.
        resumed = store.verify(resume=True)
        assert resumed["checked"] == 0
        assert resumed["skipped"] == 8

    def test_verify_heals_corruption_and_dangling(self, tmp_path):
        store = ShardedStore(tmp_path, shards=4)
        blobs = [store.put("ns", f"k{i}", {"x": np.arange(8) + i})
                 for i in range(4)]
        blobs[0].write_bytes(b"bad")
        blobs[1].unlink()
        report = store.verify()
        assert report["quarantined"] == 1
        assert report["dangling"] == 1
        # Healed: the two damaged keys are gone, the rest still load.
        assert not store.contains("ns", "k0")
        assert not store.contains("ns", "k1")
        assert sorted(store.get("ns", "k2")) == ["x"]


class TestAtomicWrite:
    def test_returns_bytes_and_publishes_whole(self, tmp_path):
        target = tmp_path / "deep" / "doc.json"
        n = atomic_write(target, lambda fh: fh.write(b'{"ok": 1}'),
                         suffix=".tmp")
        assert n == 9
        assert json.loads(target.read_text()) == {"ok": 1}
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failure_leaves_no_temp(self, tmp_path):
        target = tmp_path / "doc.json"

        def boom(fh):
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            atomic_write(target, boom, suffix=".tmp")
        assert not target.exists()
        assert not list(tmp_path.rglob("*.tmp"))


class TestConfig:
    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedStore(tmp_path, max_bytes=0)
        with pytest.raises(ValueError):
            DiskCache(tmp_path, max_bytes=-1)

    def test_unknown_backend_rejected(self, tmp_path):
        """The sharded store is the only layout: no backend knob."""
        for backend in ("flat", "sharded"):
            with pytest.raises(TypeError, match="backend"):
                DiskCache(tmp_path, backend=backend)

    def test_unknown_key_has_no_artifact_path(self, tmp_path):
        cache = DiskCache(tmp_path)
        with pytest.raises(KeyError):
            cache._path("ns", "absent")
        with pytest.raises(KeyError):
            cache.store.artifact_path("ns", "absent")

    def test_stats_reset_covers_new_counters(self):
        stats = CacheStats(hits=2, dedup_hits=3, evictions=4,
                           quarantined=5)
        stats.reset()
        assert stats.as_dict()["dedup_hits"] == 0
        assert stats.evictions == stats.quarantined == 0


class TestEvictionTelemetry:
    """Evictions surface in the telemetry log and the timings report."""

    def _pressured_store(self, root, *, pin_all=False):
        """Six ~4 KiB puts against a 4 KiB cap: every put evicts."""
        store = ShardedStore(root, shards=4, max_bytes=4096)
        for i in range(6):
            payload = {"x": np.full(512, float(i), dtype=np.float64)}
            if pin_all:
                store.pin("ns", f"k{i}")
            store.put("ns", f"k{i}", payload)
        return store

    def test_evict_emits_events_and_counts_bytes(self, tmp_path):
        from repro.obs import configure_observability, load_events

        log = tmp_path / "telemetry.jsonl"
        configure_observability(log)
        try:
            store = self._pressured_store(tmp_path / "store")
        finally:
            configure_observability(None)
        assert store.stats.evictions > 0
        assert store.stats.bytes_reclaimed > 0
        evicts = [e for e in load_events(log)
                  if e["stage"] == "store/evict"]
        assert evicts
        assert sum(e["evicted"] for e in evicts) == store.stats.evictions
        assert (sum(e["bytes_reclaimed"] for e in evicts)
                == store.stats.bytes_reclaimed)
        assert all(e["duration_s"] >= 0 for e in evicts)

    def test_over_cap_event_when_pins_hold_the_line(self, tmp_path):
        from repro.obs import configure_observability, load_events

        log = tmp_path / "telemetry.jsonl"
        configure_observability(log)
        try:
            store = self._pressured_store(tmp_path / "store", pin_all=True)
        finally:
            configure_observability(None)
        assert store.total_bytes() > 4096      # pins held, cap exceeded
        over = [e for e in load_events(log)
                if e["stage"] == "store/over_cap"]
        assert over
        assert over[-1]["over_bytes"] > 0
        assert over[-1]["pinned"] == 6

    def test_store_summary_folds_into_timings(self, tmp_path):
        from repro.obs import (configure_observability, load_events,
                               render_store_summary, render_timings)

        log = tmp_path / "telemetry.jsonl"
        configure_observability(log)
        try:
            self._pressured_store(tmp_path / "store")
        finally:
            configure_observability(None)
        events = load_events(log)
        line = render_store_summary(events)
        assert line is not None
        assert "reclaimed" in line
        assert line in render_timings(events)

    def test_no_summary_without_evictions(self):
        from repro.obs import render_store_summary

        assert render_store_summary([{"stage": "train/ae"}]) is None

    def test_stats_reset_covers_bytes_reclaimed(self):
        stats = CacheStats(bytes_reclaimed=123)
        stats.reset()
        assert stats.bytes_reclaimed == 0
