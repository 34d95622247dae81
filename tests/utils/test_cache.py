"""Unit tests for stable hashing and the disk cache."""

import os

import numpy as np
import pytest

from repro.utils.cache import DiskCache, stable_hash


class TestStableHash:
    def test_deterministic(self):
        cfg = {"a": 1, "b": [1, 2, 3], "c": {"x": 0.5}}
        assert stable_hash(cfg) == stable_hash(cfg)

    def test_dict_order_invariant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_value_sensitivity(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_float_precision_matters(self):
        assert stable_hash(0.1) != stable_hash(0.1000001)

    def test_int_float_distinguished(self):
        assert stable_hash(1) != stable_hash(1.0)

    def test_ndarray_content_hashing(self):
        a = np.arange(10)
        b = np.arange(10)
        c = np.arange(10) + 1
        assert stable_hash(a) == stable_hash(b)
        assert stable_hash(a) != stable_hash(c)

    def test_ndarray_dtype_matters(self):
        a = np.zeros(4, dtype=np.float32)
        b = np.zeros(4, dtype=np.float64)
        assert stable_hash(a) != stable_hash(b)

    def test_nested_structures(self):
        cfg = {"layers": [(3, "relu"), (5, "sigmoid")], "arr": np.ones(3)}
        assert len(stable_hash(cfg)) == 16

    def test_numpy_scalars(self):
        assert stable_hash(np.int64(5)) == stable_hash(5)

    def test_custom_length(self):
        assert len(stable_hash("x", length=8)) == 8


class TestDiskCache:
    def test_save_load_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        arrays = {"x": np.arange(6).reshape(2, 3), "y": np.ones(4)}
        cache.save("ns", "key1", arrays)
        loaded = cache.load("ns", "key1")
        np.testing.assert_array_equal(loaded["x"], arrays["x"])
        np.testing.assert_array_equal(loaded["y"], arrays["y"])

    def test_load_missing_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError):
            DiskCache(tmp_path).load("ns", "nope")

    def test_contains(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert not cache.contains("ns", "k")
        cache.save("ns", "k", {"a": np.zeros(1)})
        assert cache.contains("ns", "k")

    def test_meta_side_car(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("ns", "k", {"a": np.zeros(1)}, meta={"acc": 0.99})
        assert cache.load_meta("ns", "k")["acc"] == 0.99

    def test_meta_missing_raises(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("ns", "k", {"a": np.zeros(1)})
        with pytest.raises(KeyError):
            cache.load_meta("ns", "k")

    def test_get_or_compute_computes_once(self, tmp_path):
        cache = DiskCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"v": np.full(3, 7.0)}

        first = cache.get_or_compute("ns", "k", compute)
        second = cache.get_or_compute("ns", "k", compute)
        assert len(calls) == 1
        np.testing.assert_array_equal(first["v"], second["v"])

    def test_get_or_compute_type_check(self, tmp_path):
        cache = DiskCache(tmp_path)
        with pytest.raises(TypeError):
            cache.get_or_compute("ns", "k", lambda: [1, 2])

    def test_namespaces_isolated(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("a", "k", {"v": np.zeros(1)})
        assert not cache.contains("b", "k")

    def test_clear_namespace(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("a", "k1", {"v": np.zeros(1)})
        cache.save("b", "k2", {"v": np.zeros(1)})
        removed = cache.clear("a")
        assert removed >= 1
        assert not cache.contains("a", "k1")
        assert cache.contains("b", "k2")

    def test_clear_missing_namespace(self, tmp_path):
        assert DiskCache(tmp_path).clear("ghost") == 0

    def test_clear_namespace_keeps_shared_blobs_and_other_namespaces(
            self, tmp_path):
        cache = DiskCache(tmp_path)
        shared = {"v": np.arange(8.0)}
        cache.save("a", "k1", shared)
        cache.save("a", "k2", {"v": np.ones(3)})
        cache.save_json("a", "doc", {"x": 1})
        cache.save("b", "k3", shared)             # dedups onto a/k1's blob
        cache.save("c", "k4", {"v": np.zeros(2)})
        cache.save_json("c", "doc", {"y": 2})
        assert cache._path("b", "k3") == cache._path("a", "k1")

        # a's two entry documents, k2's unshared blob and a's JSON doc.
        assert cache.clear("a") == 4
        assert not cache.contains("a", "k1")
        assert not cache.contains("a", "k2")
        with pytest.raises(KeyError):
            cache.load_json("a", "doc")
        np.testing.assert_array_equal(cache.load("b", "k3")["v"], shared["v"])
        np.testing.assert_array_equal(cache.load("c", "k4")["v"], np.zeros(2))
        assert cache.load_json("c", "doc") == {"y": 2}

    def test_clear_namespace_reads_manifest_once(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        for i in range(4):
            cache.save("a", f"k{i}", {"v": np.full(2, float(i))})
        reads = []
        entries = cache.store.entries
        monkeypatch.setattr(cache.store, "entries",
                            lambda *a: reads.append(a) or entries(*a))
        cache.clear("a")
        assert len(reads) == 1
        assert entries() == []

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("ns", "k", {"v": np.zeros(2)})
        cache.save("ns", "k", {"v": np.ones(2)})
        np.testing.assert_array_equal(cache.load("ns", "k")["v"], np.ones(2))


class TestCorruptionRecovery:
    """Unreadable entries must surface as misses, not crashes."""

    def _corrupt(self, cache, namespace, key, payload=b"\x00truncated"):
        """Overwrite the stored blob of an existing key."""
        cache._path(namespace, key).write_bytes(payload)

    def test_truncated_npz_raises_keyerror_and_is_removed(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("ns", "k", {"v": np.ones(4)})
        self._corrupt(cache, "ns", "k")
        with pytest.raises(KeyError):
            cache.load("ns", "k")
        assert not cache.contains("ns", "k")  # stale file discarded

    def test_empty_file_treated_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("ns", "k", {"v": np.ones(4)})
        self._corrupt(cache, "ns", "k", payload=b"")
        with pytest.raises(KeyError):
            cache.load("ns", "k")

    def test_get_or_compute_rewrites_corrupt_entry(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("ns", "k", {"v": np.full(2, 3.0)})
        self._corrupt(cache, "ns", "k")
        arrays = cache.get_or_compute("ns", "k",
                                      lambda: {"v": np.full(2, 3.0)})
        np.testing.assert_array_equal(arrays["v"], np.full(2, 3.0))
        # the rewritten entry is now healthy
        np.testing.assert_array_equal(cache.load("ns", "k")["v"],
                                      np.full(2, 3.0))

    def test_corrupt_meta_treated_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("ns", "k", {"v": np.zeros(1)}, meta={"a": 1})
        cache._path("ns", "k").with_suffix(".json").write_text("{not json")
        with pytest.raises(KeyError):
            cache.load_meta("ns", "k")

    def test_stats_count_discards(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("ns", "k", {"v": np.ones(4)})
        self._corrupt(cache, "ns", "k")
        with pytest.raises(KeyError):
            cache.load("ns", "k")
        assert cache.stats.stale_discards == 1


class TestCacheStats:
    def test_hit_miss_write_accounting(self, tmp_path):
        cache = DiskCache(tmp_path)
        with pytest.raises(KeyError):
            cache.load("ns", "k")
        cache.save("ns", "k", {"v": np.ones(8)})
        cache.load("ns", "k")
        stats = cache.stats
        assert stats.misses == 1
        assert stats.writes == 1
        assert stats.hits == 1
        assert stats.bytes_written > 0
        assert stats.bytes_read > 0
        assert stats.hit_rate == pytest.approx(0.5)

    def test_reset_and_as_dict(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save("ns", "k", {"v": np.ones(2)})
        cache.load("ns", "k")
        data = cache.stats.as_dict()
        assert data["hits"] == 1 and "hit_rate" in data
        cache.stats.reset()
        assert cache.stats.hits == 0
        assert cache.stats.bytes_read == 0

    def test_str_mentions_counts(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert "hits=0" in str(cache.stats)


class TestConcurrentWriters:
    """The parallel runtime races workers on one cache root."""

    def test_threaded_same_key_stress(self, tmp_path):
        import concurrent.futures

        cache = DiskCache(tmp_path)
        payload = {"v": np.arange(2048, dtype=np.float64)}

        def write(i):
            cache.save("ns", "shared", payload, meta={"writer": i})
            return i

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            done = list(pool.map(write, range(32)))
        assert len(done) == 32
        # whoever won, the published entry must be complete and readable
        np.testing.assert_array_equal(cache.load("ns", "shared")["v"],
                                      payload["v"])
        assert "writer" in cache.load_meta("ns", "shared")
        # no temp droppings left behind anywhere in the cache tree
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_threaded_distinct_keys(self, tmp_path):
        import concurrent.futures

        cache = DiskCache(tmp_path)

        def write(i):
            cache.save("ns", f"k{i}", {"v": np.full(64, float(i))})
            return i

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, range(24)))
        for i in range(24):
            np.testing.assert_array_equal(cache.load("ns", f"k{i}")["v"],
                                          np.full(64, float(i)))

    def test_process_pool_writers(self, tmp_path):
        from repro.runtime.executor import parallel_map

        out = parallel_map(_write_entry, [(str(tmp_path), i)
                                          for i in range(8)], jobs=4)
        cache = DiskCache(tmp_path)
        assert sorted(out) == list(range(8))
        for i in range(8):
            np.testing.assert_array_equal(cache.load("ns", f"p{i}")["v"],
                                          np.full(16, float(i)))


def _write_entry(payload):
    """Module-level so the process pool can pickle it."""
    root, i = payload
    cache = DiskCache(root)
    cache.save("ns", f"p{i}", {"v": np.full(16, float(i))})
    return i


class TestDurability:
    """save/save_json must fsync the data AND the directory entry."""

    def test_atomic_write_fsyncs_directory(self, tmp_path, monkeypatch):
        import repro.utils.cache as cache_mod

        synced = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            synced.append(os.fstat(fd).st_mode)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        DiskCache(tmp_path).save_json("checkpoints", "m", {"done": [1, 2]})
        import stat

        modes = [stat.S_ISDIR(m) for m in synced]
        assert True in modes, "directory entry was never fsynced"
        assert False in modes, "file contents were never fsynced"

    def test_save_json_leaves_no_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.save_json("checkpoints", "m", {"k": "v"})
        cache.save_json("checkpoints", "m", {"k": "v2"})  # overwrite
        leftovers = [p for p in (tmp_path / "checkpoints").iterdir()
                     if ".tmp" in p.name]
        assert leftovers == []
        assert cache.load_json("checkpoints", "m") == {"k": "v2"}

    def test_dir_fsync_failure_is_nonfatal(self, tmp_path, monkeypatch):
        """A filesystem that refuses directory fsync must not break saves."""
        import stat

        real_fsync = os.fsync

        def picky_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("EINVAL")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", picky_fsync)
        cache = DiskCache(tmp_path)
        cache.save_json("ns", "k", {"ok": 1})
        assert cache.load_json("ns", "k") == {"ok": 1}
