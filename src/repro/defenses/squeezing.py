"""Feature squeezing (Xu, Evans & Qi, NDSS 2018) as a companion defense.

The paper's bibliography ([15]: "Bypassing feature squeezing by
increasing adversary strength", Sharma & Chen 2018) makes the same point
about this defense that the main text makes about MagNet: L1-based EAD
examples break it in the oblivious setting.  Implementing it lets the
ablation benchmarks compare both defenses on the same attack batches.

Feature squeezing detects adversarial inputs by comparing the model's
softmax output on the raw input with its outputs on *squeezed* versions:

* bit-depth reduction — quantize pixels to ``b`` bits;
* median smoothing — an ``k x k`` median filter per channel.

The detection score is the maximum L1 distance between the raw
prediction vector and any squeezed prediction vector; the threshold is
calibrated on clean validation data like MagNet's.  As a *defense* (not
just detector), prediction can also be served from a squeezed input.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.defenses.detectors import Detector
from repro.nn.layers import Module
from repro.nn.training import predict_labels, predict_logits


def bit_depth_reduction(x: np.ndarray, bits: int) -> np.ndarray:
    """Quantize pixels in [0,1] to ``bits`` bits per channel."""
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    levels = float(2 ** bits - 1)
    return (np.round(np.asarray(x, dtype=np.float32) * levels)
            / levels).astype(np.float32)


def median_smoothing(x: np.ndarray, kernel: int) -> np.ndarray:
    """Per-channel 2-D median filter over NCHW images."""
    if kernel < 2:
        raise ValueError(f"kernel must be >= 2, got {kernel}")
    from scipy import ndimage

    x = np.asarray(x, dtype=np.float32)
    size = (1, 1, kernel, kernel)
    return ndimage.median_filter(x, size=size, mode="reflect").astype(np.float32)


class Squeezer:
    """A named squeezing transform."""

    def __init__(self, name: str, fn: Callable[[np.ndarray], np.ndarray]):
        self.name = name
        self.fn = fn

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)

    def __repr__(self):
        return f"Squeezer({self.name})"


def default_squeezers(dataset: str = "digits") -> List[Squeezer]:
    """The squeezer sets Xu et al. recommend (grayscale vs color)."""
    if dataset == "digits":
        return [
            Squeezer("bit1", lambda x: bit_depth_reduction(x, 1)),
            Squeezer("median2", lambda x: median_smoothing(x, 2)),
        ]
    return [
        Squeezer("bit4", lambda x: bit_depth_reduction(x, 4)),
        Squeezer("bit5", lambda x: bit_depth_reduction(x, 5)),
        Squeezer("median2", lambda x: median_smoothing(x, 2)),
    ]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class SqueezeDetector(Detector):
    """Max-L1 prediction-distance detector over a squeezer ensemble."""

    def __init__(self, classifier: Module, squeezers: Sequence[Squeezer]):
        super().__init__()
        if not squeezers:
            raise ValueError("need at least one squeezer")
        self.classifier = classifier
        self.squeezers = list(squeezers)
        self.name = "squeeze_" + "+".join(s.name for s in self.squeezers)

    def _probs(self, x: np.ndarray) -> np.ndarray:
        return _softmax(predict_logits(self.classifier, x))

    def score(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        raw = self._probs(x)
        best = np.zeros(x.shape[0], dtype=np.float64)
        for squeezer in self.squeezers:
            squeezed = self._probs(squeezer(x))
            dist = np.abs(raw - squeezed).sum(axis=1)
            best = np.maximum(best, dist)
        return best


class FeatureSqueezing:
    """The full feature-squeezing defense: detector + squeezed prediction.

    API mirrors :class:`~repro.defenses.magnet.MagNet` so the evaluation
    harness can score both defenses on the same adversarial batches.
    """

    def __init__(self, classifier: Module,
                 squeezers: Optional[Sequence[Squeezer]] = None,
                 dataset: str = "digits",
                 predict_squeezer: Optional[Squeezer] = None):
        self.classifier = classifier
        self.squeezers = list(squeezers) if squeezers else default_squeezers(dataset)
        self.detector = SqueezeDetector(classifier, self.squeezers)
        # Served predictions use the first squeezer by default (Xu et al.
        # serve median-smoothed inputs on color datasets).
        self.predict_squeezer = predict_squeezer or self.squeezers[0]
        self.name = f"feature_squeezing/{dataset}"

    def calibrate(self, x_val: np.ndarray, fpr: float = 0.05) -> float:
        """Calibrate the detection threshold on clean validation data."""
        return self.detector.calibrate(x_val, fpr)

    def detect(self, x: np.ndarray) -> np.ndarray:
        return self.detector.flags(x)

    def defense_accuracy(self, x_adv: np.ndarray, y_true: np.ndarray) -> float:
        """Detected OR correctly classified on the squeezed input."""
        x_adv = np.asarray(x_adv, dtype=np.float32)
        detected = self.detect(x_adv)
        squeezed = self.predict_squeezer(x_adv)
        labels = predict_labels(self.classifier, squeezed)
        ok = detected | (labels == np.asarray(y_true))
        return float(ok.mean())

    def attack_success_rate(self, x_adv: np.ndarray, y_true: np.ndarray) -> float:
        return 1.0 - self.defense_accuracy(x_adv, y_true)

    def clean_accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Not-flagged AND correct on the squeezed input."""
        x = np.asarray(x, dtype=np.float32)
        detected = self.detect(x)
        labels = predict_labels(self.classifier, self.predict_squeezer(x))
        ok = (~detected) & (labels == np.asarray(y))
        return float(ok.mean())

    def __repr__(self):
        return (f"FeatureSqueezing({self.name!r}, "
                f"squeezers={[s.name for s in self.squeezers]})")
