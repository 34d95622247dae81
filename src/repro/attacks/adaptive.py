"""Adaptive attacks against the *defended* MagNet pipeline.

:mod:`repro.attacks.graybox` recreates Carlini & Wagner's gray-box
setting by differentiating through the reformer as an ordinary module.
This module goes two steps further, following "MagNet and 'Efficient
Defenses...' are Not Robust" (arXiv:1711.08478):

* **BPDA** (Backward-Pass Differentiable Approximation) — the forward
  pass runs the *exact* defended pipeline (the real
  :class:`~repro.defenses.reformer.Reformer`, including its output
  clipping), while the backward pass substitutes a differentiable
  surrogate: the identity by default, or any autoencoder-shaped module
  (e.g. an independently trained AE, the gray-box "doesn't know the
  exact parameters" assumption).  Success/selection therefore always
  reflects the true defense, never the surrogate.
* **Detector-aware combined loss** — MagNet's
  :class:`~repro.defenses.detectors.ReconstructionDetector` and
  :class:`~repro.defenses.detectors.JSDDetector` scores are re-expressed
  as differentiable :mod:`repro.nn` graphs, and a hinge on each
  calibrated threshold is folded into the EAD / C&W objective through
  the :class:`~repro.attacks.batch.BatchLoopMixin` loss hooks.  Because
  the penalty is exactly zero only when every score sits at or below its
  (safety-scaled) threshold, the engines' unchanged success test
  ``f <= -kappa`` now means *misclassified at confidence κ AND under
  every detection threshold* — detection bypass by construction — and
  the whole thing still runs on the PR 5 masked batch engine.

Everything here is model-agnostic plumbing; the scenario registry
(:mod:`repro.scenarios`) enumerates the threat models built from it.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.carlini_wagner import CarliniWagnerL2
from repro.attacks.ead import EAD
from repro.attacks.gradients import frozen_parameters
from repro.defenses.detectors import Detector, JSDDetector, ReconstructionDetector
from repro.nn.autograd import (
    Tensor,
    as_tensor,
    is_grad_enabled,
    no_grad,
    relu,
    sqrt,
)
from repro.nn.layers import Module

__all__ = [
    "BPDAReformedModel",
    "DetectorAwareCW",
    "DetectorAwareEAD",
    "DetectorMarginPenalty",
    "bpda_model",
    "detector_aware_attack",
    "detector_score_graph",
    "jsd_score_graph",
    "reconstruction_score_graph",
    "straight_through",
]


# ----------------------------------------------------------------------
# BPDA: exact forward, substituted backward
# ----------------------------------------------------------------------
def straight_through(value: np.ndarray, backward: Tensor) -> Tensor:
    """Graph node carrying ``value`` forward and ``backward``'s graph back.

    The BPDA primitive: the output's data is exactly ``value`` (no
    arithmetic detour, so the forward pass is bit-identical to the
    non-differentiable computation it stands in for), while the vector-
    Jacobian product is the identity onto ``backward`` — gradients flow
    as if the replaced computation were ``backward`` itself.  Builds the
    parent link the same way the autograd primitives do, and records
    nothing under :func:`~repro.nn.autograd.no_grad`.
    """
    backward = as_tensor(backward)
    value = np.asarray(value, dtype=backward.data.dtype)
    if value.shape != backward.shape:
        raise ValueError(
            f"straight-through shapes must match: value {value.shape} "
            f"vs backward path {backward.shape}")
    out = Tensor(value, dtype=value.dtype)
    if is_grad_enabled() and (backward.requires_grad or backward._parents):
        out._parents = [(backward, lambda g: g)]
    return out


class BPDAReformedModel(Module):
    """The defended pipeline with a BPDA backward pass.

    Forward: ``logits = classifier(reformer.reform(x))`` — the *real*
    reformer, including its [0, 1] output clipping, so predictions (and
    therefore attack success tests) are exactly the defended pipeline's.
    Backward: gradients flow through ``surrogate`` instead of the
    reformer — the identity when ``surrogate`` is None (Athalye et
    al.'s BPDA-with-identity, justified by AE(x) ≈ x near the data
    manifold), or any same-shaped module (surrogate-AE BPDA).
    """

    def __init__(self, reformer, classifier: Module,
                 surrogate: Optional[Module] = None):
        super().__init__()
        if reformer is None:
            raise ValueError("BPDA needs a reformer to approximate")
        self.reformer = reformer
        self.classifier = classifier
        self.surrogate = surrogate

    def forward(self, x) -> Tensor:
        xt = as_tensor(x)
        reformed = self.reformer.reform(xt.data)
        backward_path = xt if self.surrogate is None else self.surrogate(xt)
        return self.classifier(straight_through(reformed, backward_path))


def bpda_model(magnet, surrogate: Optional[Module] = None) -> BPDAReformedModel:
    """Build the BPDA surrogate for a MagNet instance (cf.
    :func:`~repro.attacks.graybox.graybox_model`)."""
    if magnet.reformer is None:
        raise ValueError("this MagNet variant has no reformer to attack through")
    return BPDAReformedModel(magnet.reformer, magnet.classifier,
                             surrogate=surrogate)


# ----------------------------------------------------------------------
# Differentiable detector scores
# ----------------------------------------------------------------------
def reconstruction_score_graph(autoencoder: Module, xt: Tensor,
                               norm: int = 1) -> Tensor:
    """``ReconstructionDetector.score`` as a differentiable graph.

    Per example: the per-pixel-mean Lp distance between ``x`` and
    ``AE(x)`` — identical arithmetic to the numpy detector, built from
    autograd ops so it can join an attack objective.
    """
    if norm not in (1, 2):
        raise ValueError(f"norm must be 1 or 2, got {norm}")
    xt = as_tensor(xt)
    recon = autoencoder(xt)
    diff = (xt - recon).reshape(xt.shape[0], -1)
    if norm == 1:
        return diff.abs().mean(axis=1)
    return sqrt((diff * diff).mean(axis=1))


def _softmax_graph(logits: Tensor, temperature: float) -> Tensor:
    """Temperature softmax; the stabilizing shift is a constant (softmax
    is shift-invariant, so detaching it leaves the gradient exact)."""
    z = logits * (1.0 / temperature)
    shift = as_tensor(z.data.max(axis=1, keepdims=True))
    e = (z - shift).exp()
    return e / e.sum(axis=1, keepdims=True)


def jsd_score_graph(autoencoder: Module, classifier: Module, xt: Tensor,
                    temperature: float, eps: float = 1e-12) -> Tensor:
    """``JSDDetector.score`` as a differentiable graph.

    Row-wise Jensen–Shannon divergence between the classifier's softened
    predictions on ``x`` and on ``AE(x)``, with the same post-softmax
    clipping as the numpy detector (clipping's flat regions contribute
    zero gradient — the standard subgradient).
    """
    xt = as_tensor(xt)
    recon = autoencoder(xt)
    p = _softmax_graph(classifier(xt), temperature).clip(eps, 1.0)
    q = _softmax_graph(classifier(recon), temperature).clip(eps, 1.0)
    m = (p + q) * 0.5
    kl_pm = (p * (p.log() - m.log())).sum(axis=1)
    kl_qm = (q * (q.log() - m.log())).sum(axis=1)
    return (kl_pm + kl_qm) * 0.5


def detector_score_graph(detector: Detector, xt: Tensor) -> Tensor:
    """Differentiable score graph for a calibrated MagNet detector."""
    if isinstance(detector, ReconstructionDetector):
        return reconstruction_score_graph(detector.autoencoder, xt,
                                          detector.norm)
    if isinstance(detector, JSDDetector):
        return jsd_score_graph(detector.autoencoder, detector.classifier,
                               xt, detector.temperature)
    raise TypeError(
        f"no differentiable graph for {type(detector).__name__}; "
        "supported: ReconstructionDetector, JSDDetector")


class DetectorMarginPenalty:
    """Differentiable hinge on every detector's calibrated threshold.

    Per example the penalty is ``weight * Σ_d relu(s_d(x) / τ_d - 1)``
    with ``τ_d = threshold_frac * threshold_d``: zero exactly when every
    score sits at or below its safety-scaled threshold, growing linearly
    (in threshold units, so detectors with wildly different score scales
    contribute comparably) once a detector would fire.  ``threshold_frac
    < 1`` crafts examples that stay *under* the boundary with margin
    instead of riding it.
    """

    def __init__(self, detectors: Sequence[Detector], weight: float = 1.0,
                 threshold_frac: float = 0.95):
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if not 0.0 < threshold_frac <= 1.0:
            raise ValueError(
                f"threshold_frac must be in (0, 1], got {threshold_frac}")
        self.detectors: List[Detector] = list(detectors)
        for det in self.detectors:
            if det.threshold is None:
                raise RuntimeError(
                    f"{det.name} has no threshold; calibrate the MagNet "
                    "before building a detector-aware attack")
            if det.threshold <= 0:
                raise ValueError(
                    f"{det.name} threshold must be positive for the "
                    f"normalized hinge, got {det.threshold}")
        self.weight = float(weight)
        self.threshold_frac = float(threshold_frac)

    def graph(self, xt: Tensor) -> Tensor:
        """(N,) penalty graph over a (possibly grad-tracking) input."""
        total: Optional[Tensor] = None
        for det in self.detectors:
            tau = det.threshold * self.threshold_frac
            term = relu(detector_score_graph(det, xt) * (1.0 / tau) - 1.0)
            total = term if total is None else total + term
        if total is None:
            return as_tensor(np.zeros(xt.shape[0], dtype=np.float32))
        return total * self.weight

    @contextlib.contextmanager
    def _frozen(self):
        """Freeze every detector-owned module so the penalty backward
        skips parameter-gradient work (attacks only need d/dx)."""
        with contextlib.ExitStack() as stack:
            for det in self.detectors:
                for attr in ("autoencoder", "classifier"):
                    module = getattr(det, attr, None)
                    if module is not None:
                        stack.enter_context(frozen_parameters(module))
            yield

    def values(self, x: np.ndarray) -> np.ndarray:
        """(N,) penalty values, no graph (success tests)."""
        with no_grad():
            return self.graph(as_tensor(np.asarray(x, dtype=np.float32))
                              ).data.astype(np.float64)

    def value_and_grad(self, x: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Penalty values and their input gradient, one backward pass."""
        xt = Tensor(np.asarray(x, dtype=np.float32), requires_grad=True)
        with self._frozen():
            penalty = self.graph(xt)
        penalty.backward(np.ones_like(penalty.data))
        grad = xt.grad if xt.grad is not None else np.zeros_like(xt.data)
        return penalty.data.astype(np.float64), grad


# ----------------------------------------------------------------------
# Detector-aware optimization attacks
# ----------------------------------------------------------------------
class _DetectorAwareMixin:
    """Fold a :class:`DetectorMarginPenalty` into an optimization attack.

    Overrides the :class:`~repro.attacks.batch.BatchLoopMixin` loss
    hooks: the penalty's value joins the hinge loss (so the unchanged
    engine success test ``f <= -kappa`` additionally requires every
    detector score under its safety-scaled threshold) and its gradient
    joins the input gradient.  The masked batch engine, per-lane binary
    search and abort-early machinery are untouched.
    """

    penalty: DetectorMarginPenalty

    def _attack_loss_and_grad(self, x, labels):
        f_vals, grad, logits = super()._attack_loss_and_grad(x, labels)
        p_vals, p_grad = self.penalty.value_and_grad(x)
        return f_vals + p_vals, grad + p_grad, logits

    def _attack_loss(self, x, labels):
        f_vals, logits = super()._attack_loss(x, labels)
        return f_vals + self.penalty.values(x), logits

    def _result_name(self, *args, **kwargs) -> str:
        return "detector_aware+" + super()._result_name(*args, **kwargs)


class DetectorAwareEAD(_DetectorAwareMixin, EAD):
    """EAD whose objective jointly fools the model and evades detection.

    ``model`` is typically a :class:`BPDAReformedModel` (or a gray-box
    :class:`~repro.attacks.graybox.ReformedModel`), so one optimization
    run targets the full defended pipeline: misclassify after reforming
    *and* stay under every detector threshold.  A lane counts as
    successful only when both hold.
    """

    name = "ead_detector_aware"

    def __init__(self, model: Module, detectors: Sequence[Detector], *,
                 detector_weight: float = 1.0, threshold_frac: float = 0.95,
                 **ead_kwargs):
        super().__init__(model, **ead_kwargs)
        self.penalty = DetectorMarginPenalty(
            detectors, weight=detector_weight, threshold_frac=threshold_frac)


class DetectorAwareCW(_DetectorAwareMixin, CarliniWagnerL2):
    """C&W-L2 with the detector-evasion hinge in its objective."""

    name = "cw_l2_detector_aware"

    def __init__(self, model: Module, detectors: Sequence[Detector], *,
                 detector_weight: float = 1.0, threshold_frac: float = 0.95,
                 **cw_kwargs):
        super().__init__(model, **cw_kwargs)
        self.penalty = DetectorMarginPenalty(
            detectors, weight=detector_weight, threshold_frac=threshold_frac)


def detector_aware_attack(magnet, family: str = "ead", *,
                          surrogate: Optional[Module] = None,
                          detector_weight: float = 1.0,
                          threshold_frac: float = 0.95,
                          **attack_kwargs):
    """Build the full adaptive attack against a calibrated MagNet.

    The crafted model is the BPDA pipeline (exact defended forward,
    identity/surrogate backward) and every detector of ``magnet`` joins
    the objective.  ``family`` selects :class:`DetectorAwareEAD`
    (``"ead"``) or :class:`DetectorAwareCW` (``"cw"``);
    ``attack_kwargs`` pass through to the underlying attack.
    """
    model = bpda_model(magnet, surrogate=surrogate)
    if family == "ead":
        cls = DetectorAwareEAD
    elif family == "cw":
        cls = DetectorAwareCW
    else:
        raise ValueError(f"family must be 'ead' or 'cw', got {family!r}")
    return cls(model, magnet.detectors, detector_weight=detector_weight,
               threshold_frac=threshold_frac, **attack_kwargs)
