"""Shared fixtures for the test suite.

Expensive artifacts (tiny trained models) are session-scoped and cached
in a per-session temp directory so the suite stays fast and hermetic —
tests never touch the repo-level .repro_cache.
"""

from __future__ import annotations

import dataclasses
import shutil

import numpy as np
import pytest

from repro.datasets import load_digit_splits
from repro.models import AutoencoderSpec, ClassifierSpec, ModelZoo
from repro.utils.cache import DiskCache


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def test_cache(tmp_path_factory):
    return DiskCache(tmp_path_factory.mktemp("repro_cache"))


@pytest.fixture(scope="session")
def tiny_splits():
    """A small SyntheticDigits split set shared across the session."""
    return load_digit_splits(n_train=700, n_val=150, n_test=300, seed=7)


@pytest.fixture(scope="session")
def tiny_zoo(tiny_splits, test_cache):
    return ModelZoo(tiny_splits, cache=test_cache)


@pytest.fixture(scope="session")
def tiny_classifier_spec():
    return ClassifierSpec(dataset="digits", epochs=6)


@pytest.fixture(scope="session")
def tiny_classifier(tiny_zoo, tiny_classifier_spec):
    """A small digits classifier trained once per session (~10 s)."""
    return tiny_zoo.classifier(tiny_classifier_spec)


@pytest.fixture(scope="session")
def tiny_ae_spec():
    return AutoencoderSpec(dataset="digits", kind="deep", width=3, epochs=25)


@pytest.fixture(scope="session")
def tiny_autoencoder(tiny_zoo, tiny_ae_spec):
    """A small digits autoencoder trained once per session."""
    return tiny_zoo.autoencoder(tiny_ae_spec)


@pytest.fixture(scope="session")
def smoke_context(tmp_path_factory):
    """Factory: a smoke-profile digits context (seed 0) over a private
    copy, at ``root``, of one store that holds its splits, classifier and
    default-MagNet autoencoders, trained once per session.  A module
    that sweeps or clears its store loads those models, never retrains."""
    from repro.experiments import SMOKE, ExperimentContext

    smoke_store = tmp_path_factory.mktemp("smoke_store")
    ExperimentContext("digits", profile=SMOKE, cache=DiskCache(smoke_store),
                      seed=0).magnet("default")

    def make(root):
        shutil.copytree(smoke_store, root, dirs_exist_ok=True)
        return ExperimentContext("digits", profile=SMOKE,
                                 cache=DiskCache(root), seed=0)

    return make


@pytest.fixture(scope="session")
def tiny_fft_profile():
    """The smoke profile shrunk to seconds, with every model on fft."""
    from repro.experiments.config import SMOKE

    return dataclasses.replace(
        SMOKE, name="tiny-fft", nn_backend="fft",
        digits_sizes=(200, 100, 100), digits_attack=4,
        max_iterations=10, binary_search_steps=1,
        digits_kappas=(0.0,), betas=(1e-1,),
        classifier_epochs=1, ae_epochs=1)
