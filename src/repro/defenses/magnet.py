"""The MagNet defense pipeline (Meng & Chen, CCS 2017).

MagNet is a serial two-stage defense in front of a fixed classifier:

1. **Detect** — every detector scores the input; if any score exceeds its
   calibrated threshold the input is rejected as adversarial.
2. **Reform** — surviving inputs are projected onto the learned data
   manifold by the reformer autoencoder, then classified.

The evaluation conventions follow the paper under reproduction:

* *defense accuracy* on adversarial examples = fraction that are either
  detected **or** correctly classified after reforming (its complement is
  the attack success rate);
* *clean accuracy* with MagNet = fraction of clean inputs that are **not**
  flagged and are correctly classified after reforming (false positives
  count against the defense, which is why Tables III/VI show a small drop).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.defenses.detectors import (
    Chain,
    Detector,
    ForwardMemo,
    check_calibration,
    quantile_threshold,
)
from repro.defenses.reformer import Reformer, clip_pixels
from repro.nn.layers import Module
from repro.nn.training import predict_labels


@dataclasses.dataclass
class MagNetDecision:
    """Full per-example outcome of a MagNet pass."""

    detected: np.ndarray          # (N,) bool — rejected by any detector
    labels_raw: np.ndarray        # (N,) classifier labels on the raw input
    labels_reformed: np.ndarray   # (N,) classifier labels after reforming
    detector_flags: np.ndarray    # (D, N) bool — per-detector decisions
    #: (D, N) float per-detector anomaly scores (higher = more anomalous);
    #: populated by both :meth:`MagNet.decide` and :meth:`MagNet.decide_batch`,
    #: and bitwise equal to :meth:`MagNet.detector_scores` on the same array.
    detector_scores: Optional[np.ndarray] = None
    #: Wall-clock seconds per pipeline stage ("detect", "reform",
    #: "classify"); populated by :meth:`MagNet.decide_batch` for the
    #: serving layer's telemetry.  Each forward is charged to the first
    #: stage that reads it.
    stage_s: Optional[Dict[str, float]] = None

    def __len__(self) -> int:
        return len(self.detected)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` and ``b`` hold bitwise-identical values."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    as_uint = f"u{a.itemsize}"
    return bool(np.array_equal(np.ascontiguousarray(a).view(as_uint),
                               np.ascontiguousarray(b).view(as_uint)))


class MagNet:
    """Detector ensemble + reformer in front of a classifier.

    Every pass over a batch (:meth:`calibrate`, :meth:`decide`,
    :meth:`decide_batch`, :meth:`detect`, :meth:`detector_flags`,
    :meth:`detector_scores`) runs each distinct forward once, through one
    :class:`~repro.defenses.detectors.ForwardMemo` shared by the
    detectors, the reformer and the classifier: ``AE(x)`` per distinct
    autoencoder, ``clf(x)``, and ``clf(AE(x))`` per autoencoder that a
    JSD detector or the reformer reads.  Forwards are chunked at
    :data:`~repro.defenses.detectors.FORWARD_BATCH` rows, so every score,
    threshold, flag and label equals what each consumer computes alone.
    """

    def __init__(self, classifier: Module, detectors: Sequence[Detector],
                 reformer: Optional[Reformer], name: str = "magnet"):
        self.classifier = classifier
        self.detectors: List[Detector] = list(detectors)
        self.reformer = reformer
        self.name = name

    # ------------------------------------------------------------------
    # The shared pass
    # ------------------------------------------------------------------
    def _reads(self, classify: bool) -> List[Chain]:
        """Every memo read of a pass, so entries drop after their last one."""
        reads = [chain for det in self.detectors for chain in det.reads()]
        if classify:
            reads.append((self.classifier,))
            if self.reformer is not None:
                ae = self.reformer.autoencoder
                reads += [(ae,), (ae, self.classifier)]
        return reads

    def _scores(self, x: np.ndarray,
                memo: Optional[ForwardMemo] = None) -> List[np.ndarray]:
        """Per-detector score arrays of float32 ``x``."""
        if x.shape[0] == 0:
            return [det.score(x) for det in self.detectors]
        if memo is None:
            memo = ForwardMemo(x, self._reads(classify=False))
        return [det.score_from(memo) for det in self.detectors]

    def _check_calibrated(self) -> None:
        for det in self.detectors:
            if det.threshold is None:
                raise RuntimeError(
                    f"{det.name} has no threshold; call calibrate() first")

    def _flags(self, scores: List[np.ndarray], n: int) -> np.ndarray:
        flags = np.zeros((len(self.detectors), n), dtype=bool)
        for i, (det, det_scores) in enumerate(zip(self.detectors, scores)):
            flags[i] = det_scores > det.threshold
        return flags

    def _decide(self, x: np.ndarray) -> MagNetDecision:
        """Detect, reform and classify ``x`` through one forward memo."""
        x = np.asarray(x, dtype=np.float32)
        self._check_calibrated()
        n = x.shape[0]
        memo = ForwardMemo(x, self._reads(classify=True))
        t0 = time.perf_counter()
        scores = self._scores(x, memo)
        flags = self._flags(scores, n)
        t1 = time.perf_counter()
        # The reformer output is clip(AE(x)); clf(AE(x)) stands for
        # clf(clip(AE(x))) only when the clip changed no bit.
        reformed = None
        reformed_chain = None
        if self.reformer is not None and n:
            ae = self.reformer.autoencoder
            recon = memo.get((ae,))
            reformed = clip_pixels(recon)
            if _same_bits(reformed, recon):
                reformed, reformed_chain = None, (ae, self.classifier)
            del recon
        t2 = time.perf_counter()
        if n:
            labels_raw = memo.get((self.classifier,)).argmax(axis=1)
        else:
            labels_raw = np.zeros(0, dtype=np.int64)
        if reformed is not None:
            labels_reformed = predict_labels(self.classifier, reformed)
        elif reformed_chain is not None:
            labels_reformed = memo.get(reformed_chain).argmax(axis=1)
        else:
            labels_reformed = labels_raw.copy()
        t3 = time.perf_counter()
        return MagNetDecision(
            detected=flags.any(axis=0), labels_raw=labels_raw,
            labels_reformed=labels_reformed, detector_flags=flags,
            detector_scores=self._stack(scores, n),
            stage_s={"detect": t1 - t0, "reform": t2 - t1,
                     "classify": t3 - t2})

    @staticmethod
    def _stack(scores: List[np.ndarray], n: int) -> np.ndarray:
        return np.stack(scores) if scores else np.zeros((0, n), np.float32)

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(self, x_val: np.ndarray, fpr_total: float = 0.01) -> None:
        """Calibrate all detector thresholds on clean validation data.

        The total false-positive budget is split evenly across detectors,
        mirroring MagNet's per-detector allocation.  Raises ``ValueError``
        for an empty ``x_val`` or ``fpr_total`` outside (0, 1); thresholds
        change only once every detector's scores are computed.
        """
        check_calibration(x_val, fpr_total, "fpr_total")
        if not self.detectors:
            return
        fpr_each = fpr_total / len(self.detectors)
        scores = self._scores(np.asarray(x_val, dtype=np.float32))
        for det, det_scores in zip(self.detectors, scores):
            det.threshold = quantile_threshold(det_scores, fpr_each)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def detect(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask: True where any detector rejects the input."""
        return self._detector_flags(x).any(axis=0)

    def detector_flags(self, x: np.ndarray) -> np.ndarray:
        """(D, N) per-detector boolean decisions."""
        return self._detector_flags(x)

    def _detector_flags(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._check_calibrated()
        return self._flags(self._scores(x), x.shape[0])

    def detector_scores(self, x: np.ndarray) -> np.ndarray:
        """(D, N) per-detector anomaly scores (higher = more anomalous)."""
        x = np.asarray(x, dtype=np.float32)
        return self._stack(self._scores(x), x.shape[0])

    def reform(self, x: np.ndarray) -> np.ndarray:
        """Apply the reformer (identity if the variant has none)."""
        if self.reformer is None:
            return np.asarray(x, dtype=np.float32)
        return self.reformer.reform(x)

    def decide(self, x: np.ndarray) -> MagNetDecision:
        """Run the full pipeline and return every per-example signal.

        :meth:`decide_batch` without the stage timings.
        """
        decision = self._decide(x)
        decision.stage_s = None
        return decision

    def decide_batch(self, x: np.ndarray) -> MagNetDecision:
        """Serving entry point: one shared-forward pass with scores and timings.

        Returns what :meth:`decide` returns — flags are each detector's
        score against its calibrated threshold, and every array is
        bitwise identical — plus per-stage wall-clock timings for the
        serving layer's telemetry.  Each forward runs once and is charged
        to the first stage that reads it: ``detect`` runs the detectors'
        forwards, ``reform`` clips ``AE(x)`` (about 0 when a detector
        shares the reformer's autoencoder), and ``classify`` runs
        whatever classifier forwards the JSD detectors did not.
        """
        return self._decide(x)

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------
    def defense_accuracy(self, x_adv: np.ndarray, y_true: np.ndarray) -> float:
        """Paper's 'classification accuracy' on adversarial examples:
        detected OR correctly classified after reforming.

        Empty input returns 0.0 by convention (no examples defended)
        rather than propagating a 0/0 NaN.
        """
        if np.asarray(x_adv).shape[0] == 0:
            return 0.0
        decision = self.decide(x_adv)
        ok = decision.detected | (decision.labels_reformed == np.asarray(y_true))
        return float(ok.mean())

    def attack_success_rate(self, x_adv: np.ndarray, y_true: np.ndarray) -> float:
        """ASR = 100% − defense accuracy (as a fraction in [0, 1]).

        Empty input returns 0.0 by convention (no examples attacked).
        """
        if np.asarray(x_adv).shape[0] == 0:
            return 0.0
        return 1.0 - self.defense_accuracy(x_adv, y_true)

    def clean_accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on clean data with the defense active (FPs count as errors).

        Empty input returns 0.0 by convention.
        """
        if np.asarray(x).shape[0] == 0:
            return 0.0
        decision = self.decide(x)
        ok = (~decision.detected) & (decision.labels_reformed == np.asarray(y))
        return float(ok.mean())

    def __repr__(self):
        det = ", ".join(d.name for d in self.detectors) or "none"
        ref = "yes" if self.reformer is not None else "no"
        return f"MagNet({self.name!r}, detectors=[{det}], reformer={ref})"
