"""DeepFool (Moosavi-Dezfooli et al., CVPR 2016).

An untargeted minimal-L2 attack that iteratively crosses the nearest
linearized decision boundary.  Listed by the paper among the attacks
MagNet defends; included for completeness of the attack suite.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.attacks.gradients import class_logit_grads, is_successful, logits_of
from repro.nn.layers import Module


class DeepFool(Attack):
    """Batched DeepFool with overshoot, stopping each example on success."""

    name = "deepfool"

    def __init__(self, model: Module, *, max_iterations: int = 30,
                 overshoot: float = 0.02):
        super().__init__(model)
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.max_iterations = int(max_iterations)
        self.overshoot = float(overshoot)

    def _run(self, x0: np.ndarray, labels: np.ndarray) -> AttackResult:
        n = x0.shape[0]
        rows = np.arange(n)

        x = x0.copy()
        total_pert = np.zeros_like(x0)
        active = np.ones(n, dtype=bool)

        for _ in range(self.max_iterations):
            if not active.any():
                break
            idx = np.flatnonzero(active)
            logits, grads = class_logit_grads(self.model, x[idx])
            k = logits.shape[1]
            lab = labels[idx]
            sub_rows = np.arange(len(idx))

            # Per class: f_k = Z_k - Z_lab, w_k = grad_k - grad_lab.
            f = logits - logits[sub_rows, lab][:, None]
            grad_lab = grads[lab, sub_rows]          # (n_active, C, H, W)
            best_ratio = np.full(len(idx), np.inf)
            best_r = np.zeros_like(grad_lab)
            for cls in range(k):
                w_k = grads[cls, sub_rows] - grad_lab
                w_norm_sq = (w_k.reshape(len(idx), -1) ** 2).sum(axis=1)
                valid = (cls != lab) & (w_norm_sq > 1e-12)
                if not valid.any():
                    continue
                ratio = np.abs(f[sub_rows, cls]) / np.sqrt(w_norm_sq + 1e-12)
                better = valid & (ratio < best_ratio)
                if better.any():
                    best_ratio[better] = ratio[better]
                    scale = ((np.abs(f[sub_rows, cls]) + 1e-4)
                             / (w_norm_sq + 1e-12))
                    best_r[better] = (scale[:, None, None, None] * w_k)[better]

            total_pert[idx] += best_r
            x[idx] = np.clip(
                x0[idx] + (1.0 + self.overshoot) * total_pert[idx], 0.0, 1.0)

            flipped = is_successful(logits_of(self.model, x[idx]), lab, 0.0)
            active[idx[flipped]] = False

        success = is_successful(logits_of(self.model, x), labels, 0.0)
        return AttackResult.from_examples(
            self.model, x0, x, success, labels, name="deepfool")
