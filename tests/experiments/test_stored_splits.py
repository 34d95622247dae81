"""Stored dataset splits and the lean import of the inference stack.

An :class:`ExperimentContext` reads its train/val/test splits from the
store (namespace ``datasets``) and generates them only on a miss.  The
stored arrays must come back bitwise equal to freshly generated ones, and
the key must move with everything the pixels depend on.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.datasets
from repro.datasets import load_digit_splits, load_object_splits
from repro.experiments import SMOKE, ExperimentContext
from repro.experiments import context as context_mod
from repro.utils.cache import DiskCache

TINY = dataclasses.replace(SMOKE, name="tiny-splits",
                           digits_sizes=(30, 20, 10),
                           objects_sizes=(20, 10, 10))

LOADERS = {"digits": load_digit_splits, "objects": load_object_splits}


def _assert_same_splits(actual, expected):
    assert actual.name == expected.name
    for part in ("train", "val", "test"):
        a, e = getattr(actual, part), getattr(expected, part)
        assert a.name == e.name
        for field in ("x", "y"):
            got, want = getattr(a, field), getattr(e, field)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (part, field)


def _refuse_generation(monkeypatch):
    def refuse(**kwargs):
        raise AssertionError("splits were generated, not loaded")

    monkeypatch.setattr(context_mod, "load_digit_splits", refuse)
    monkeypatch.setattr(context_mod, "load_object_splits", refuse)


@pytest.mark.parametrize("dataset", ["digits", "objects"])
def test_stored_splits_round_trip_bitwise(dataset, tmp_path, monkeypatch):
    cache = DiskCache(tmp_path)
    fresh = LOADERS[dataset](*TINY.sizes(dataset), seed=2)
    generated = ExperimentContext(dataset, TINY, cache=cache, seed=2).splits
    _assert_same_splits(generated, fresh)

    _refuse_generation(monkeypatch)
    loads = cache.stats.hits
    loaded = ExperimentContext(dataset, TINY, cache=cache, seed=2).splits
    assert cache.stats.hits == loads + 1
    _assert_same_splits(loaded, fresh)


def test_loaded_splits_keep_model_keys(tmp_path, monkeypatch):
    """Models keyed on loaded splits are the ones keyed on generated
    splits: the zoo's data fingerprint does not change."""
    from repro.models.zoo import data_fingerprint

    cache = DiskCache(tmp_path)
    generated = ExperimentContext("digits", TINY, cache=cache).splits
    _refuse_generation(monkeypatch)
    loaded = ExperimentContext("digits", TINY, cache=cache).splits
    assert data_fingerprint(loaded) == data_fingerprint(generated)


class TestSplitsKey:
    BASE = ("digits", (30, 20, 10), 0)

    def test_stable(self):
        assert (context_mod.splits_key(*self.BASE)
                == context_mod.splits_key(*self.BASE))

    @pytest.mark.parametrize("changed", [
        ("objects", (30, 20, 10), 0),
        ("digits", (31, 20, 10), 0),
        ("digits", (30, 21, 10), 0),
        ("digits", (30, 20, 11), 0),
        ("digits", (30, 20, 10), 1),
    ])
    def test_moves_with_dataset_sizes_and_seed(self, changed):
        assert (context_mod.splits_key(*changed)
                != context_mod.splits_key(*self.BASE))

    def test_moves_with_generator_digest(self, monkeypatch):
        before = context_mod.splits_key(*self.BASE)
        monkeypatch.setattr(context_mod, "generator_digest",
                            lambda: "edited-generator")
        assert context_mod.splits_key(*self.BASE) != before

    def test_digest_moves_with_a_datasets_source(self, tmp_path,
                                                 monkeypatch):
        """Editing any generator source changes the digest."""
        package = Path(repro.datasets.__file__).parent
        copy = tmp_path / "datasets"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro.datasets, "__file__",
                            str(copy / "__init__.py"))
        context_mod.generator_digest.cache_clear()
        try:
            same = context_mod.generator_digest()
            rendering = copy / "rendering.py"
            rendering.write_text(rendering.read_text() + "\n# edited\n")
            context_mod.generator_digest.cache_clear()
            edited = context_mod.generator_digest()
        finally:
            monkeypatch.undo()
            context_mod.generator_digest.cache_clear()
        assert same == context_mod.generator_digest()
        assert edited != same

    def test_stale_key_regenerates(self, tmp_path, monkeypatch):
        """A store written under another generator digest is a miss."""
        cache = DiskCache(tmp_path)
        ExperimentContext("digits", TINY, cache=cache).splits
        monkeypatch.setattr(context_mod, "generator_digest",
                            lambda: "edited-generator")
        writes = cache.stats.writes
        ExperimentContext("digits", TINY, cache=cache).splits
        assert cache.stats.writes == writes + 1


def test_inference_stack_imports_without_scipy():
    """scipy loads only where a function needs it: the fft conv kernel.

    Dataset rendering and the corruptions are numpy only, so generating
    splits never loads it either (``tests/datasets/test_batched_rendering.py``
    runs both with scipy blocked)."""
    code = ("import sys, repro.experiments, repro.serving; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(repro.datasets.__file__).parents[2]
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
