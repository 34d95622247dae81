"""Train-once model zoo with disk caching.

The 7 tables and 13 figures reuse the same classifiers and autoencoders;
this module trains each (dataset, architecture, loss, seed) combination at
most once per cache directory.  Cache keys incorporate a fingerprint of
the training data, so changing dataset parameters invalidates stale
weights automatically.

MagNet trains its autoencoders as *denoisers*: Gaussian noise (volume 0.1
in the original) is added to the inputs while the reconstruction target
stays clean.  ``AutoencoderSpec.train_noise`` reproduces that.

A zoo builds every model on one conv kernel (``conv_kernel``, the
profile's ``nn_backend``): each ``Conv2D`` of a trained or loaded model
carries it, so training, attacks and every worker process a model is
pickled or forked into run the same kernel.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.datasets.base import DataSplits
from repro.models.autoencoders import build_autoencoder
from repro.models.classifiers import build_classifier
from repro.nn.backend import check_kernel
from repro.nn.layers import Module, set_conv_kernel
from repro.nn.training import Trainer, accuracy
from repro.obs import span
from repro.utils.cache import DiskCache, default_cache, stable_hash
from repro.utils.logging import get_logger
from repro.utils.rng import rng_from_seed

log = get_logger(__name__)


@dataclasses.dataclass(frozen=True)
class ClassifierSpec:
    """Everything that determines a trained classifier."""
    dataset: str                 # canonical name: "digits" | "objects"
    variant: str = "compact"
    seed: int = 0
    epochs: int = 6
    batch_size: int = 64
    lr: float = 1e-3

    def config(self) -> Dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class AutoencoderSpec:
    """Everything that determines a trained MagNet autoencoder."""
    dataset: str                 # "digits" | "objects"
    kind: str = "deep"           # "deep" (AE-I / CIFAR AE) | "shallow" (AE-II)
    width: int = 3
    loss: str = "mse"            # "mse" (default MagNet) | "mae" (Fig 12/13 variant)
    seed: int = 0
    epochs: int = 40
    batch_size: int = 64
    lr: float = 1e-2
    train_noise: float = 0.1     # MagNet's denoising noise volume

    def config(self) -> Dict:
        return dataclasses.asdict(self)


def data_fingerprint(splits: DataSplits) -> str:
    """Cheap stable fingerprint of the training distribution."""
    train = splits.train
    head = min(64, len(train))
    return stable_hash({
        "name": splits.name,
        "n_train": len(train),
        "shape": list(train.image_shape),
        "x_head": train.x[:head],
        "y_head": train.y[:head],
    })


def train_classifier(splits: DataSplits, spec: ClassifierSpec,
                     conv_kernel: str = "numpy") -> Tuple[Module, Dict]:
    """Train a classifier from scratch; returns (model, info dict)."""
    model = set_conv_kernel(
        build_classifier(spec.dataset, seed=spec.seed, variant=spec.variant),
        conv_kernel)
    trainer = Trainer(model, loss="cross_entropy", lr=spec.lr, seed=spec.seed + 1)
    history = trainer.fit(
        splits.train.x, splits.train.y,
        epochs=spec.epochs, batch_size=spec.batch_size,
        x_val=splits.val.x, y_val=splits.val.y, verbose=False,
    )
    info = {
        "val_accuracy": history.epochs[-1].val_accuracy,
        "test_accuracy": accuracy(model, splits.test.x, splits.test.y),
        "train_loss": history.final_train_loss,
    }
    log.info("trained classifier %s: test_acc=%.4f", spec, info["test_accuracy"])
    return model, info


def train_autoencoder(splits: DataSplits, spec: AutoencoderSpec,
                      conv_kernel: str = "numpy") -> Tuple[Module, Dict]:
    """Train a MagNet autoencoder (denoising, per the original recipe)."""
    model = set_conv_kernel(
        build_autoencoder(spec.dataset, spec.kind, width=spec.width,
                          seed=spec.seed),
        conv_kernel)
    trainer = Trainer(model, loss=spec.loss, lr=spec.lr, seed=spec.seed + 1)
    x_clean = splits.train.x
    if spec.train_noise > 0:
        rng = rng_from_seed(spec.seed + 7)
        x_in = np.clip(
            x_clean + rng.normal(0, spec.train_noise, size=x_clean.shape), 0, 1
        ).astype(np.float32)
    else:
        x_in = x_clean
    history = trainer.fit(
        x_in, x_clean,
        epochs=spec.epochs, batch_size=spec.batch_size, verbose=False,
    )
    val_loss = trainer.evaluate_loss(splits.val.x, splits.val.x)
    info = {"train_loss": history.final_train_loss, "val_loss": val_loss}
    log.info("trained autoencoder %s: val_%s=%.5f", spec, spec.loss, val_loss)
    return model, info


class ModelZoo:
    """Disk-cached access to trained models for one dataset's splits.

    ``conv_kernel`` names the conv kernel every model this zoo hands out
    trains and runs on (:data:`repro.nn.backend.KERNELS`).
    """

    def __init__(self, splits: DataSplits, cache: Optional[DiskCache] = None,
                 conv_kernel: str = "numpy"):
        self.splits = splits
        self.cache = cache if cache is not None else default_cache()
        self.conv_kernel = check_kernel(conv_kernel)
        self._fingerprint = data_fingerprint(splits)
        self._memory: Dict[str, Module] = {}

    def _key(self, spec) -> str:
        key = {"data": self._fingerprint, "spec": spec.config()}
        # Weights trained on the tolerance-equivalent fft kernel differ
        # from numpy-trained ones, so they get their own entries; numpy
        # is left out of the key, so existing stores stay valid.
        if self.conv_kernel != "numpy":
            key["conv_kernel"] = self.conv_kernel
        return stable_hash(key)

    def classifier(self, spec: Optional[ClassifierSpec] = None) -> Module:
        """Return a trained classifier, from memory, disk, or fresh training."""
        spec = spec or ClassifierSpec(dataset=_dataset_of(self.splits))
        key = "clf-" + self._key(spec)
        if key in self._memory:
            return self._memory[key]
        model = build_classifier(spec.dataset, seed=spec.seed, variant=spec.variant)
        model = self._restore_or_train(
            key, model,
            lambda: train_classifier(self.splits, spec, self.conv_kernel),
            stage="train/classifier", batch=spec.batch_size)
        self._memory[key] = model
        return model

    def autoencoder(self, spec: Optional[AutoencoderSpec] = None) -> Module:
        """Return a trained autoencoder, from memory, disk, or fresh training."""
        spec = spec or AutoencoderSpec(dataset=_dataset_of(self.splits))
        key = "ae-" + self._key(spec)
        if key in self._memory:
            return self._memory[key]
        model = build_autoencoder(spec.dataset, spec.kind, width=spec.width,
                                  seed=spec.seed)
        model = self._restore_or_train(
            key, model,
            lambda: train_autoencoder(self.splits, spec, self.conv_kernel),
            stage="train/autoencoder", batch=spec.batch_size)
        self._memory[key] = model
        return model

    def _restore_or_train(self, key: str, fresh_model: Module, train_fn,
                          stage: str = "train/model",
                          batch: Optional[int] = None) -> Module:
        with span(stage, batch=batch) as evt:
            try:
                state = self.cache.load("models", key)
                fresh_model.load_state_dict(state)
                set_conv_kernel(fresh_model, self.conv_kernel).eval()
                evt["cache"] = "hit"
                return fresh_model
            except KeyError:
                pass
            evt["cache"] = "miss"
            model, info = train_fn()
            self.cache.save("models", key, model.state_dict(), meta=info)
            model.eval()
            return model

    def model_meta(self, spec) -> Dict:
        """Return the training-info sidecar for a previously trained spec."""
        prefix = "clf-" if isinstance(spec, ClassifierSpec) else "ae-"
        return self.cache.load_meta("models", prefix + self._key(spec))


def _dataset_of(splits: DataSplits) -> str:
    name = splits.name
    if "digit" in name:
        return "digits"
    if "object" in name:
        return "objects"
    raise ValueError(f"cannot infer dataset kind from splits name {name!r}")


# ----------------------------------------------------------------------
# Model-builder catalog (spawn-safe serving workers)
# ----------------------------------------------------------------------
#: Registered builder callables, keyed by catalog name.  A serving
#: :class:`~repro.serving.router.ModelSpec` may name a builder here
#: instead of embedding a callable, so only the *name* and its kwargs
#: cross a process boundary — the worker resolves and calls the builder
#: locally (training/loading from its own cache as needed).
_MODEL_BUILDERS: Dict[str, object] = {}


def register_model_builder(name: str, builder, replace: bool = False) -> None:
    """Register ``builder`` under ``name`` for by-name worker resolution.

    ``builder`` must be a module-level callable returning a ready (e.g.
    calibrated-MagNet) model; it is looked up again inside each worker
    process, so it must be importable there.
    """
    if not callable(builder):
        raise TypeError(f"builder for {name!r} must be callable")
    if name in _MODEL_BUILDERS and not replace:
        raise ValueError(f"model builder {name!r} already registered")
    _MODEL_BUILDERS[name] = builder


def resolve_model_builder(name: str):
    """Look up a registered builder, importing known provider modules.

    Providers register at import time; a fresh worker process has not
    imported them yet, so resolution lazily pulls in the standard ones
    (kept as function-local imports to avoid circular imports — both
    providers import :mod:`repro.models.zoo` themselves).
    """
    if name not in _MODEL_BUILDERS:
        import importlib
        for provider in ("repro.serving.smoke", "repro.experiments.context"):
            try:
                importlib.import_module(provider)
            except Exception:  # pragma: no cover - provider deps missing
                continue
            if name in _MODEL_BUILDERS:
                break
    try:
        return _MODEL_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown model builder {name!r}; registered: "
            f"{sorted(_MODEL_BUILDERS)}") from None


def registered_model_builders() -> Tuple[str, ...]:
    return tuple(sorted(_MODEL_BUILDERS))
