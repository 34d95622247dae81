"""Minibatch training loop.

One :class:`Trainer` serves every model in the reproduction: the MNIST and
CIFAR stand-in classifiers (cross-entropy) and MagNet's autoencoders
(MSE or MAE reconstruction, where the target is the input itself —
pass ``targets=None``).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.autograd import Tensor, no_grad
from repro.nn.backend import flush_kernel_events
from repro.nn.layers import Module
from repro.nn.losses import get_loss
from repro.nn.optim import Adam, Optimizer
from repro.utils.logging import get_logger
from repro.utils.rng import rng_from_seed

log = get_logger(__name__)


def iterate_minibatches(x: np.ndarray, y: Optional[np.ndarray], batch_size: int,
                        rng: Optional[np.random.Generator] = None,
                        shuffle: bool = True) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Yield (x_batch, y_batch) pairs; y may be None (autoencoder training)."""
    n = x.shape[0]
    if y is not None and y.shape[0] != n:
        raise ValueError(f"x has {n} rows but y has {y.shape[0]}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(n)
    if shuffle:
        if rng is None:
            rng = np.random.default_rng()
        rng.shuffle(order)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        yield x[idx], (y[idx] if y is not None else None)


@dataclasses.dataclass
class EpochStats:
    """Loss/accuracy record for one epoch."""
    epoch: int
    train_loss: float
    val_loss: Optional[float] = None
    val_accuracy: Optional[float] = None
    seconds: float = 0.0


@dataclasses.dataclass
class TrainingHistory:
    """Full record of a fit() call."""
    epochs: List[EpochStats] = dataclasses.field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        return self.epochs[-1].train_loss if self.epochs else float("nan")

    @property
    def best_val_accuracy(self) -> float:
        accs = [e.val_accuracy for e in self.epochs if e.val_accuracy is not None]
        return max(accs) if accs else float("nan")


class Trainer:
    """Generic minibatch trainer.

    Args:
        model: module to train.
        loss: loss name (``cross_entropy``, ``mse``, ``mae``) or a callable
            ``loss(prediction, target) -> Tensor``.
        optimizer: optional pre-built optimizer (default Adam(lr=1e-3)).
        seed: controls minibatch shuffling.
    """

    def __init__(self, model: Module, loss: str = "cross_entropy",
                 optimizer: Optional[Optimizer] = None, lr: float = 1e-3,
                 seed: int = 0):
        self.model = model
        self.loss_fn: Callable = get_loss(loss) if isinstance(loss, str) else loss
        self.loss_name = loss if isinstance(loss, str) else getattr(loss, "__name__", "custom")
        self.optimizer = optimizer or Adam(model.parameters(), lr=lr)
        self.rng = rng_from_seed(seed)

    def fit(self, x: np.ndarray, y: Optional[np.ndarray] = None, *,
            epochs: int = 5, batch_size: int = 64,
            x_val: Optional[np.ndarray] = None, y_val: Optional[np.ndarray] = None,
            lr_schedule=None, early_stopping_patience: Optional[int] = None,
            grad_clip_norm: Optional[float] = None,
            verbose: bool = True) -> TrainingHistory:
        """Train; ``y=None`` means autoencoder mode (target = input).

        Optional knobs:

        * ``lr_schedule`` — an :class:`~repro.nn.schedules.LRSchedule`
          applied at the start of each epoch;
        * ``early_stopping_patience`` — stop after this many epochs
          without val-loss improvement (requires ``x_val``);
        * ``grad_clip_norm`` — global-norm gradient clipping per step.
        """
        if early_stopping_patience is not None and x_val is None:
            raise ValueError("early stopping requires validation data")
        from repro.obs import histogram, span

        history = TrainingHistory()
        best_val = float("inf")
        stale = 0
        epoch_seconds = histogram("train/epoch_seconds")
        self.model.train()
        with span(f"fit/{self.loss_name}", batch=min(batch_size, len(x)),
                  samples=len(x)) as fit_sp:
            for epoch in range(1, epochs + 1):
                if lr_schedule is not None:
                    lr_schedule.apply(self.optimizer, epoch - 1)
                t0 = time.time()
                losses = []
                for xb, yb in iterate_minibatches(x, y, batch_size,
                                                  rng=self.rng):
                    target = yb if yb is not None else xb
                    self.optimizer.zero_grad()
                    pred = self.model(Tensor(xb))
                    loss = self.loss_fn(pred, target)
                    loss.backward()
                    if grad_clip_norm is not None:
                        from repro.nn.schedules import clip_grad_norm

                        clip_grad_norm(self.model.parameters(), grad_clip_norm)
                    self.optimizer.step()
                    losses.append(loss.item())
                stats = EpochStats(epoch=epoch,
                                   train_loss=float(np.mean(losses)),
                                   seconds=time.time() - t0)
                epoch_seconds.observe(stats.seconds)
                if x_val is not None:
                    stats.val_loss = self.evaluate_loss(x_val, y_val)
                    if y_val is not None and self.loss_name == "cross_entropy":
                        stats.val_accuracy = accuracy(self.model, x_val, y_val)
                history.epochs.append(stats)
                if verbose:
                    msg = f"epoch {epoch}/{epochs} loss={stats.train_loss:.4f}"
                    if stats.val_loss is not None:
                        msg += f" val_loss={stats.val_loss:.4f}"
                    if stats.val_accuracy is not None:
                        msg += f" val_acc={stats.val_accuracy:.3f}"
                    log.info(msg)
                if early_stopping_patience is not None:
                    if (stats.val_loss is not None
                            and stats.val_loss < best_val - 1e-9):
                        best_val = stats.val_loss
                        stale = 0
                    else:
                        stale += 1
                        if stale > early_stopping_patience:
                            log.info("early stopping at epoch %d", epoch)
                            break
            fit_sp["epochs"] = len(history.epochs)
        # Fold the conv dispatch counts/wall-time accumulated by this fit
        # into the telemetry log (per-kernel nn/kernels/<name> events).
        flush_kernel_events()
        self.model.eval()
        return history

    def evaluate_loss(self, x: np.ndarray, y: Optional[np.ndarray],
                      batch_size: int = 256) -> float:
        """Mean loss over a dataset without building graphs."""
        losses, weights = [], []
        with no_grad():
            for xb, yb in iterate_minibatches(x, y, batch_size, shuffle=False):
                target = yb if yb is not None else xb
                pred = self.model(Tensor(xb))
                losses.append(self.loss_fn(pred, target).item())
                weights.append(xb.shape[0])
        return float(np.average(losses, weights=weights))


def predict_logits(model: Module, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Forward a dataset in batches without graph construction."""
    outs = []
    with no_grad():
        for start in range(0, x.shape[0], batch_size):
            outs.append(model(Tensor(x[start:start + batch_size])).data)
    return np.concatenate(outs, axis=0) if outs else np.zeros((0,))


def predict_labels(model: Module, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Argmax class predictions (empty int64 array for an empty batch)."""
    if np.asarray(x).shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return predict_logits(model, x, batch_size).argmax(axis=1)


def accuracy(model: Module, x: np.ndarray, y: np.ndarray,
             batch_size: int = 256) -> float:
    """Top-1 accuracy of a classifier on (x, y)."""
    preds = predict_labels(model, x, batch_size)
    return float((preds == np.asarray(y)).mean())
