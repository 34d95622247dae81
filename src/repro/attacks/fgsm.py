"""Fast Gradient Sign Method and its iterative variant.

FGSM (Goodfellow et al., 2015) and I-FGSM/BIM (Kurakin et al., 2016) are
the classical Linf baselines MagNet was originally shown to defend; they
round out the attack suite and serve as sanity baselines in the examples
and tests.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.attacks.gradients import cross_entropy_grad, is_successful, logits_of
from repro.nn.layers import Module


class FGSM(Attack):
    """Single-step Linf attack: ``x + eps * sign(grad CE)``."""

    name = "fgsm"

    def __init__(self, model: Module, *, epsilon: float = 0.1):
        super().__init__(model)
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        self.epsilon = float(epsilon)

    def _run(self, x0: np.ndarray, labels: np.ndarray) -> AttackResult:
        _, grad = cross_entropy_grad(self.model, x0, labels)
        x_adv = np.clip(x0 + self.epsilon * np.sign(grad), 0.0, 1.0).astype(np.float32)
        success = is_successful(logits_of(self.model, x_adv), labels, 0.0)
        return AttackResult.from_examples(
            self.model, x0, x_adv, success, labels,
            name=f"fgsm(eps={self.epsilon:g})")


class IterativeFGSM(Attack):
    """I-FGSM / BIM: repeated small FGSM steps clipped to an eps-ball."""

    name = "ifgsm"

    def __init__(self, model: Module, *, epsilon: float = 0.1,
                 step_size: float = 0.02, steps: int = 10):
        super().__init__(model)
        if epsilon < 0 or step_size <= 0 or steps < 1:
            raise ValueError("invalid I-FGSM parameters")
        self.epsilon = float(epsilon)
        self.step_size = float(step_size)
        self.steps = int(steps)

    def _run(self, x0: np.ndarray, labels: np.ndarray) -> AttackResult:
        lo = np.clip(x0 - self.epsilon, 0.0, 1.0)
        hi = np.clip(x0 + self.epsilon, 0.0, 1.0)
        x = x0.copy()
        for _ in range(self.steps):
            _, grad = cross_entropy_grad(self.model, x, labels)
            x = x + self.step_size * np.sign(grad).astype(np.float32)
            x = np.clip(x, lo, hi)
        success = is_successful(logits_of(self.model, x), labels, 0.0)
        return AttackResult.from_examples(
            self.model, x0, x, success, labels,
            name=f"ifgsm(eps={self.epsilon:g}, steps={self.steps})")
