"""EAD: Elastic-net Attacks to DNNs (Chen et al., AAAI 2018).

The paper's central attack.  EAD minimizes

    c * f(x, t) + ||x - x0||_2^2 + beta * ||x - x0||_1     s.t. x in [0,1]^p

via iterative shrinkage-thresholding: a gradient step on the smooth part
``g(x) = c*f(x) + ||x - x0||_2^2`` followed by the projected
shrink operator S_beta (paper eq. (5)), which zeroes perturbations
smaller than beta and shrinks larger ones — the L1 sparsification that
lets these examples slip past MagNet.

Both the plain ISTA iteration of the paper's eq. (4) and the FISTA
momentum variant used by the reference EAD implementation are available
(``method="ista"|"fista"``); the step size follows the reference's
square-root polynomial decay.

Two *decision rules* select the final adversarial example among all
successful iterates: least elastic-net distortion (``"en"``) or least L1
distortion (``"l1"``).  A single optimization run tracks both, so
:meth:`EAD.attack_both` shares all compute between the two rules — the
paper evaluates both everywhere.

The optimize loop runs on the masked batch engine
(:mod:`repro.attacks.batch`): all lanes advance per numpy dispatch, the
per-example binary-search bracket lives in wide arrays, and with
``abort_early=True`` lanes whose elastic-net objective plateaus freeze
in place and drop out of the model dispatch.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.attacks.batch import BatchLoopMixin, MaskedLanes
from repro.nn.backend import flush_kernel_events
from repro.nn.layers import Module
from repro.obs import counter, histogram, span
from repro.utils.logging import get_logger

log = get_logger(__name__)

DECISION_RULES = ("en", "l1")


def shrink_threshold(z: np.ndarray, x0: np.ndarray, beta: float) -> np.ndarray:
    """The projected shrinkage-thresholding operator S_beta (paper eq. (5)).

    Per pixel: keep the original value when the proposed perturbation is
    within beta; otherwise shrink the perturbation by beta and project
    into the [0, 1] box.
    """
    diff = z - x0
    shrunk_up = np.minimum(z - beta, 1.0)
    shrunk_down = np.maximum(z + beta, 0.0)
    return np.where(diff > beta, shrunk_up,
                    np.where(diff < -beta, shrunk_down, x0)).astype(np.float32)


class EAD(BatchLoopMixin, Attack):
    """Batch-first elastic-net attack with per-lane binary search on c.

    All hyperparameters after ``model`` are keyword-only; use
    :meth:`from_profile` to bind the attack budget of an
    :class:`~repro.experiments.config.ExperimentProfile`.
    """

    name = "ead"

    def __init__(self, model: Module, *, beta: float = 1e-2, kappa: float = 0.0,
                 binary_search_steps: int = 9, max_iterations: int = 1000,
                 lr: float = 1e-2, initial_const: float = 1e-3,
                 const_upper: float = 1e10, rule: str = "en",
                 method: str = "fista", targeted: bool = False,
                 abort_early: bool = False):
        super().__init__(model)
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        if kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {kappa}")
        if rule not in DECISION_RULES:
            raise ValueError(f"rule must be one of {DECISION_RULES}, got {rule!r}")
        if method not in ("ista", "fista"):
            raise ValueError(f"method must be 'ista' or 'fista', got {method!r}")
        self.beta = float(beta)
        self.kappa = float(kappa)
        self.binary_search_steps = int(binary_search_steps)
        self.max_iterations = int(max_iterations)
        self.lr = float(lr)
        self.initial_const = float(initial_const)
        self.const_upper = float(const_upper)
        self.rule = rule
        self.method = method
        self.targeted = bool(targeted)
        self.abort_early = bool(abort_early)

    @classmethod
    def from_profile(cls, model: Module, profile, **overrides) -> "EAD":
        """Build the attack with a profile's optimization budget.

        Maps ``max_iterations`` / ``binary_search_steps`` /
        ``initial_const`` / ``ead_lr`` from an
        :class:`~repro.experiments.config.ExperimentProfile`; keyword
        ``overrides`` (typically ``beta=``, ``kappa=``) win over profile
        fields.
        """
        params = dict(
            binary_search_steps=profile.binary_search_steps,
            max_iterations=profile.max_iterations,
            lr=profile.ead_lr,
            initial_const=profile.initial_const,
        )
        params.update(overrides)
        return cls(model, **params)

    def _result_name(self, rule: str) -> str:
        return f"ead_{rule}(beta={self.beta:g}, kappa={self.kappa:g})"

    # ------------------------------------------------------------------
    def _run(self, x0: np.ndarray, labels: np.ndarray) -> AttackResult:
        """Batch body: run once, return the configured rule's picks."""
        return self._attack_both_prepared(x0, labels)[self.rule]

    def attack_both(self, x0: np.ndarray, labels: np.ndarray
                    ) -> Dict[str, AttackResult]:
        """Run once, return ``{"en": ..., "l1": ...}`` results.

        The optimization trajectory is identical for both decision rules;
        only the selection among successful iterates differs, so sharing
        one run halves the experiment cost.  Batch-in/batch-out like
        :meth:`attack`, including the ``N=0`` fast path.
        """
        x0, labels = self._prepare(x0, labels)
        if x0.shape[0] == 0:
            return {rule: AttackResult.empty(x0, labels,
                                             name=self._result_name(rule))
                    for rule in DECISION_RULES}
        results = self._attack_both_prepared(x0, labels)
        flush_kernel_events()
        return results

    def _attack_both_prepared(self, x0: np.ndarray, labels: np.ndarray
                              ) -> Dict[str, AttackResult]:
        """The wide engine on a prepared, non-empty batch: one numpy
        dispatch per iteration for all lanes."""
        n = x0.shape[0]

        # Per-lane binary-search bracket, carried as wide arrays.
        c_lo = np.zeros(n, dtype=np.float64)
        c_hi = np.full(n, self.const_upper, dtype=np.float64)
        const = np.full(n, self.initial_const, dtype=np.float64)

        best = {
            rule: {
                "score": np.full(n, np.inf, dtype=np.float64),
                "adv": x0.copy(),
                "const": np.full(n, np.nan, dtype=np.float64),
            }
            for rule in DECISION_RULES
        }
        ever_success = np.zeros(n, dtype=bool)
        iterations = np.zeros(n, dtype=np.int64)
        converged = np.zeros(n, dtype=bool)
        dispatches = 0
        iters = counter("attack/iterations")

        with span(f"attack/{self.name}", batch=n, beta=self.beta,
                  kappa=self.kappa) as attack_sp:
            for step in range(self.binary_search_steps):
                with span("attack/binary_search_step", step=step) as step_sp:
                    lanes, step_success = self._optimize_step(
                        x0, labels, const, best, ever_success, iters)
                    iterations += lanes.iterations
                    dispatches += lanes.dispatches
                    converged = ~lanes.active
                    step_sp["frozen"] = n - lanes.count

                found = step_success
                c_hi[found] = np.minimum(c_hi[found], const[found])
                c_lo[~found] = np.maximum(c_lo[~found], const[~found])
                has_upper = c_hi < self.const_upper
                midpoint = (c_lo + c_hi) / 2.0
                const = np.where(has_upper, midpoint,
                                 np.where(found, const, const * 10.0))
                const = np.minimum(const, self.const_upper)
            attack_sp["successes"] = int(ever_success.sum())
            attack_sp["dispatches"] = dispatches
            attack_sp["lane_iterations"] = int(iterations.sum())
            counter("attack/dispatches").inc(dispatches)
            lane_hist = histogram("attack/lane_iterations")
            for count in iterations:
                lane_hist.observe(float(count))

        log.debug("EAD beta=%g kappa=%g: %d/%d successful",
                  self.beta, self.kappa, int(ever_success.sum()), n)
        results = {}
        for rule in DECISION_RULES:
            results[rule] = AttackResult.from_examples(
                self.model, x0, best[rule]["adv"], ever_success, labels,
                const=best[rule]["const"],
                name=self._result_name(rule),
                iterations=iterations.copy(),
                converged=converged.copy(),
                final_const=const.copy())
        return results

    def _optimize_step(self, x0: np.ndarray, labels: np.ndarray,
                       const: np.ndarray, best: Dict[str, Dict[str, np.ndarray]],
                       ever_success: np.ndarray, iters):
        """One binary-search step: a masked ISTA/FISTA run at fixed ``const``.

        All lanes advance together; with ``abort_early`` a lane whose
        elastic-net objective plateaus is frozen (its mask clears) and
        later dispatches compact to the surviving lanes.  Mutates
        ``best`` and ``ever_success`` in place; returns the step's
        :class:`~repro.attacks.batch.MaskedLanes` and success mask.
        """
        n = x0.shape[0]
        lanes = MaskedLanes(n)
        x = x0.copy()
        y = x0.copy()   # FISTA slack variable (equals x for ISTA)
        step_success = np.zeros(n, dtype=bool)
        prev_obj = np.full(n, np.inf, dtype=np.float64)
        check_every = max(self.max_iterations // 10, 1)
        const_f32 = const.astype(np.float32)

        for it in range(self.max_iterations):
            if not lanes.any_active():
                break
            sub = lanes.sub
            pos = np.arange(n) if isinstance(sub, slice) else sub
            n_active = pos.shape[0]
            lr_it = self.lr * np.sqrt(max(1.0 - it / self.max_iterations, 0.0))

            x0_a, lab_a = x0[sub], labels[sub]
            f_vals, grad_f, _ = self._attack_loss_and_grad(y[sub], lab_a)
            grad_g = (const_f32[sub][:, None, None, None] * grad_f
                      + 2.0 * (y[sub] - x0_a))
            z = y[sub] - lr_it * grad_g
            x_new = shrink_threshold(z, x0_a, self.beta)

            if self.method == "fista":
                momentum = it / (it + 3.0)
                y[sub] = x_new + momentum * (x_new - x[sub])
            else:
                y[sub] = x_new
            x[sub] = x_new

            # Evaluate the *iterate* (not the slack) for success/selection.
            f_iter, _ = self._attack_loss(x_new, lab_a)
            lanes.tick(dispatches=2)
            iters.inc(n_active)

            succeeded = f_iter <= -self.kappa + 1e-6
            check_abort = (self.abort_early
                           and (it + 1) % check_every == 0)
            if succeeded.any() or check_abort:
                delta = (x_new - x0_a).astype(np.float64).reshape(n_active, -1)
                l1 = np.abs(delta).sum(axis=1)
                l2_sq = (delta ** 2).sum(axis=1)

            if succeeded.any():
                hit = pos[succeeded]
                step_success[hit] = True
                ever_success[hit] = True
                scores = {"l1": l1, "en": self.beta * l1 + l2_sq}
                for rule in DECISION_RULES:
                    improved = succeeded & (scores[rule] < best[rule]["score"][pos])
                    if improved.any():
                        upd = pos[improved]
                        best[rule]["score"][upd] = scores[rule][improved]
                        best[rule]["adv"][upd] = x_new[improved]
                        best[rule]["const"][upd] = const[upd]

            if check_abort:
                # Per-lane plateau test on the full elastic-net objective;
                # stalled lanes freeze in place (bit-stable from here on).
                obj = const[pos] * f_iter + l2_sq + self.beta * l1
                stalled = obj > prev_obj[pos] * 0.9999
                if stalled.any():
                    lanes.freeze(pos[stalled])
                keep = pos[~stalled]
                prev_obj[keep] = obj[~stalled]

        return lanes, step_success
