"""MagNet adversarial-example detectors.

MagNet's detectors declare an input adversarial when a statistic comparing
the input with its autoencoder reconstruction exceeds a threshold
calibrated on clean validation data:

* :class:`ReconstructionDetector` — the per-example Lp reconstruction
  error ``||x - AE(x)||_p`` (MagNet MNIST uses p=1 and p=2 on its two
  autoencoders).
* :class:`JSDDetector` — the Jensen–Shannon divergence between the
  classifier's softened predictions on ``x`` and on ``AE(x)``,
  ``JSD(F(x)/T, F(AE(x))/T)`` with temperature ``T`` (MagNet CIFAR uses
  T = 10 and T = 40).

Scores are "higher = more anomalous" throughout.
"""

from __future__ import annotations

import collections
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Module
from repro.nn.training import predict_logits

#: A forward chain: modules applied in order to the batch, e.g. ``(ae,)``
#: is ``AE(x)``, ``(clf,)`` is ``clf(x)`` and ``(ae, clf)`` is
#: ``clf(AE(x))``.
Chain = Tuple[Module, ...]

_EMPTY_SCORES = np.zeros(0, dtype=np.float32)


def _key(chain: Chain) -> Tuple[int, ...]:
    return tuple(id(module) for module in chain)


class ForwardMemo:
    """One batch's no-grad forwards, each distinct chain run at most once.

    A chain is computed on its first read, in
    :data:`~repro.nn.training.INFERENCE_BATCH`-row chunks (``predict_logits``'
    default, so a shared forward and a standalone ``predict_labels`` agree
    bitwise), from its memoized prefix.  When ``reads`` lists every read
    the caller will make (repeats included), an entry is dropped right
    after its last read, so a pass holds only the arrays still to be
    consumed; chains outside ``reads`` stay until the memo is discarded.
    """

    def __init__(self, x: np.ndarray, reads: Iterable[Chain] = ()):
        self.x = x
        self._values: Dict[Tuple[int, ...], np.ndarray] = {}
        self._left: collections.Counter = collections.Counter()
        chains: Dict[Tuple[int, ...], Chain] = {}
        for chain in reads:
            self._left[_key(chain)] += 1
            for k in range(1, len(chain) + 1):
                chains.setdefault(_key(chain[:k]), chain[:k])
        # Computing a chain reads its prefix once.
        for chain in chains.values():
            if len(chain) > 1:
                self._left[_key(chain[:-1])] += 1

    def get(self, chain: Chain) -> np.ndarray:
        """The chain's output on ``x``, computed on its first read."""
        key = _key(chain)
        value = self._values.get(key)
        if value is None:
            inputs = self.get(chain[:-1]) if len(chain) > 1 else self.x
            value = predict_logits(chain[-1], inputs)
            self._values[key] = value
        if key in self._left:
            self._left[key] -= 1
            if self._left[key] <= 0:
                del self._left[key], self._values[key]
        return value


class Detector:
    """Base detector: anomaly ``score`` plus a calibrated ``threshold``.

    Subclasses are pure scorers: :meth:`reads` names the forward chains
    they consume and :meth:`score_from` turns a :class:`ForwardMemo`
    holding them into scores, so a pipeline running several detectors
    on one batch shares each forward between them.
    """

    name = "detector"

    def __init__(self):
        self.threshold: Optional[float] = None

    def reads(self) -> Sequence[Chain]:
        """Forward chains :meth:`score_from` reads, one entry per read."""
        return ()

    def score_from(self, memo: ForwardMemo) -> np.ndarray:
        """Per-example anomaly scores of ``memo.x`` (N >= 1)."""
        raise NotImplementedError

    def score(self, x: np.ndarray) -> np.ndarray:
        """Per-example anomaly score (shape (N,)); higher = more anomalous."""
        x = np.asarray(x, dtype=np.float32)
        if x.shape[0] == 0:
            return _EMPTY_SCORES.copy()
        return self.score_from(ForwardMemo(x))

    def calibrate(self, x_val: np.ndarray, fpr: float) -> float:
        """Set the threshold to the (1 - fpr) quantile of clean val scores.

        With MagNet's tiny false-positive budgets and modest validation
        sets the quantile degenerates to (near) the max clean score, which
        matches the original implementation's behaviour.
        """
        check_calibration(x_val, fpr, "fpr")
        self.threshold = quantile_threshold(self.score(x_val), fpr)
        return self.threshold

    def flags(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of inputs rejected as adversarial."""
        if self.threshold is None:
            raise RuntimeError(
                f"{self.name} has no threshold; call calibrate() first")
        return self.score(x) > self.threshold

    def __repr__(self):
        thr = f"{self.threshold:.5g}" if self.threshold is not None else "uncalibrated"
        return f"{type(self).__name__}(threshold={thr})"


def check_calibration(x_val: np.ndarray, fpr: float, what: str) -> None:
    """Reject an empty validation set or a budget ``fpr`` outside (0, 1)."""
    if not 0.0 < fpr < 1.0:
        raise ValueError(f"{what} must be in (0, 1), got {fpr}")
    if np.asarray(x_val).shape[0] == 0:
        raise ValueError("cannot calibrate on an empty validation set")


def quantile_threshold(scores: np.ndarray, fpr: float) -> float:
    """The (1 - fpr) quantile of clean scores: the calibrated threshold."""
    return float(np.quantile(scores, 1.0 - fpr))


class ReconstructionDetector(Detector):
    """Reconstruction-error detector: ``||x - AE(x)||_p`` averaged per pixel."""

    def __init__(self, autoencoder: Module, norm: int = 1):
        super().__init__()
        if norm not in (1, 2):
            raise ValueError(f"norm must be 1 or 2, got {norm}")
        self.autoencoder = autoencoder
        self.norm = int(norm)
        self.name = f"recon_l{norm}"

    def reads(self) -> Sequence[Chain]:
        return ((self.autoencoder,),)

    def score_from(self, memo: ForwardMemo) -> np.ndarray:
        x = memo.x
        diff = (x - memo.get((self.autoencoder,))).reshape(x.shape[0], -1)
        if self.norm == 1:
            return np.abs(diff).mean(axis=1)
        return np.sqrt((diff ** 2).mean(axis=1))


def _softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    z = logits / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def jensen_shannon_divergence(p: np.ndarray, q: np.ndarray,
                              eps: float = 1e-12) -> np.ndarray:
    """Row-wise JSD between two probability matrices (natural log, in [0, ln 2])."""
    p = np.clip(p, eps, 1.0)
    q = np.clip(q, eps, 1.0)
    m = 0.5 * (p + q)
    kl_pm = (p * (np.log(p) - np.log(m))).sum(axis=1)
    kl_qm = (q * (np.log(q) - np.log(m))).sum(axis=1)
    return 0.5 * (kl_pm + kl_qm)


class JSDDetector(Detector):
    """Jensen–Shannon-divergence detector with softmax temperature ``T``."""

    def __init__(self, autoencoder: Module, classifier: Module,
                 temperature: float = 10.0):
        super().__init__()
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.autoencoder = autoencoder
        self.classifier = classifier
        self.temperature = float(temperature)
        self.name = f"jsd_T{temperature:g}"

    def reads(self) -> Sequence[Chain]:
        return ((self.classifier,), (self.autoencoder, self.classifier))

    def score_from(self, memo: ForwardMemo) -> np.ndarray:
        p = _softmax(memo.get((self.classifier,)), self.temperature)
        q = _softmax(memo.get((self.autoencoder, self.classifier)),
                     self.temperature)
        return jensen_shannon_divergence(p, q)
