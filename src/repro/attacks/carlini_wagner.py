"""The Carlini & Wagner L2 attack (S&P 2017).

The pure-L2 baseline the paper compares EAD against.  Implementation
follows the reference ``nn_robust_attacks`` code:

* change of variables ``x = (tanh(w) + 1) / 2`` enforces the [0,1] box;
* Adam minimizes ``c * f(x) + ||x - x0||_2^2`` over ``w``, where ``f`` is
  the confidence-κ hinge on the logits (paper eqs. (2)/(3));
* the trade-off constant ``c`` is found per example by binary search
  (paper setting: start 0.001, 9 steps, 1000 iterations, lr 0.01);
* among all successful iterates the one with the smallest L2 distortion
  is kept.

The optimize loop runs on the masked batch engine
(:mod:`repro.attacks.batch`): every lane advances per numpy dispatch,
the binary-search bracket is carried in wide per-lane arrays, and
``abort_early`` is a **per-lane** plateau test — a stalled lane freezes
in place (bit-stable) and drops out of the model dispatch while the
rest keep iterating.  This matches the semantics of running each
example alone (the historical batch-mean abort coupled lanes together).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.attacks.batch import BatchLoopMixin, MaskedLanes
from repro.nn.layers import Module
from repro.obs import counter, histogram, span
from repro.utils.logging import get_logger

log = get_logger(__name__)

_TANH_CLAMP = 0.999999


class CarliniWagnerL2(BatchLoopMixin, Attack):
    """Batch-first untargeted/targeted C&W-L2 attack with per-lane binary
    search.

    All hyperparameters after ``model`` are keyword-only; use
    :meth:`from_profile` to bind the attack budget of an
    :class:`~repro.experiments.config.ExperimentProfile`.
    """

    name = "cw_l2"

    def __init__(self, model: Module, *, kappa: float = 0.0,
                 binary_search_steps: int = 9, max_iterations: int = 1000,
                 lr: float = 1e-2, initial_const: float = 1e-3,
                 const_upper: float = 1e10, abort_early: bool = True,
                 targeted: bool = False):
        super().__init__(model)
        if kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {kappa}")
        if max_iterations < 1 or binary_search_steps < 1:
            raise ValueError("iterations and binary search steps must be >= 1")
        self.kappa = float(kappa)
        self.binary_search_steps = int(binary_search_steps)
        self.max_iterations = int(max_iterations)
        self.lr = float(lr)
        self.initial_const = float(initial_const)
        self.const_upper = float(const_upper)
        self.abort_early = bool(abort_early)
        self.targeted = bool(targeted)

    @classmethod
    def from_profile(cls, model: Module, profile, **overrides) -> "CarliniWagnerL2":
        """Build the attack with a profile's optimization budget.

        Maps ``max_iterations`` / ``binary_search_steps`` /
        ``initial_const`` / ``cw_lr`` from an
        :class:`~repro.experiments.config.ExperimentProfile`; keyword
        ``overrides`` (typically ``kappa=``) win over profile fields.
        """
        params = dict(
            binary_search_steps=profile.binary_search_steps,
            max_iterations=profile.max_iterations,
            lr=profile.cw_lr,
            initial_const=profile.initial_const,
        )
        params.update(overrides)
        return cls(model, **params)

    def _result_name(self) -> str:
        return f"cw_l2(kappa={self.kappa:g})"

    def _run(self, x0: np.ndarray, labels: np.ndarray) -> AttackResult:
        """Craft adversarial examples for a prepared batch with the wide
        engine: one numpy dispatch per iteration for all lanes.

        ``labels`` are true labels when untargeted, target labels when
        targeted.
        """
        n = x0.shape[0]

        # tanh-space anchor of the clean images.
        w0 = np.arctanh((2.0 * x0 - 1.0) * _TANH_CLAMP).astype(np.float32)

        # Per-lane binary-search bracket, carried as wide arrays.
        c_lo = np.zeros(n, dtype=np.float64)
        c_hi = np.full(n, self.const_upper, dtype=np.float64)
        const = np.full(n, self.initial_const, dtype=np.float64)

        best_l2 = np.full(n, np.inf, dtype=np.float64)
        best_adv = x0.copy()
        best_const = np.full(n, np.nan, dtype=np.float64)
        ever_success = np.zeros(n, dtype=bool)
        iterations = np.zeros(n, dtype=np.int64)
        converged = np.zeros(n, dtype=bool)
        dispatches = 0
        iters = counter("attack/iterations")

        with span(f"attack/{self.name}", batch=n,
                  kappa=self.kappa) as attack_sp:
            for step in range(self.binary_search_steps):
                with span("attack/binary_search_step", step=step) as step_sp:
                    lanes, step_success = self._optimize_step(
                        x0, w0, labels, const, best_l2, best_adv,
                        best_const, ever_success, iters)
                    iterations += lanes.iterations
                    dispatches += lanes.dispatches
                    converged = ~lanes.active
                    step_sp["frozen"] = n - lanes.count

                # Binary-search update of c (per lane).
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

        log.debug("C&W kappa=%g: %d/%d successful", self.kappa,
                  int(ever_success.sum()), n)
        return AttackResult.from_examples(
            self.model, x0, best_adv, ever_success, labels,
            const=best_const, name=self._result_name(),
            iterations=iterations, converged=converged, final_const=const)

    def _optimize_step(self, x0: np.ndarray, w0: np.ndarray,
                       labels: np.ndarray, const: np.ndarray,
                       best_l2: np.ndarray, best_adv: np.ndarray,
                       best_const: np.ndarray, ever_success: np.ndarray,
                       iters):
        """One binary-search step: a masked Adam run at fixed ``const``.

        All lanes advance together; ``abort_early`` freezes a lane when
        *its own* loss plateaus, after which later dispatches compact to
        the surviving lanes and the frozen lane's state is bit-stable.
        Mutates the ``best_*`` / ``ever_success`` arrays in place and
        returns the step's :class:`~repro.attacks.batch.MaskedLanes`
        and success mask.
        """
        n = x0.shape[0]
        lanes = MaskedLanes(n)
        w = w0.copy()
        adam_m = np.zeros_like(w)
        adam_v = np.zeros_like(w)
        step_success = np.zeros(n, dtype=bool)
        prev_loss = np.full(n, np.inf, dtype=np.float64)
        check_every = max(self.max_iterations // 10, 1)
        const_f32 = const.astype(np.float32)

        for it in range(self.max_iterations):
            if not lanes.any_active():
                break
            sub = lanes.sub
            pos = np.arange(n) if isinstance(sub, slice) else sub
            n_active = pos.shape[0]

            tanh_w = np.tanh(w[sub])
            x = ((tanh_w + 1.0) * 0.5).astype(np.float32)
            x0_a = x0[sub]
            f_vals, grad_f, _ = self._attack_loss_and_grad(x, labels[sub])
            lanes.tick(dispatches=1)
            iters.inc(n_active)

            delta = (x - x0_a).astype(np.float64)
            l2_sq = (delta.reshape(n_active, -1) ** 2).sum(axis=1)

            # Success test: the hinge saturated, i.e. margin >= kappa.
            succeeded = f_vals <= -self.kappa + 1e-6
            improved = succeeded & (l2_sq < best_l2[pos])
            if improved.any():
                upd = pos[improved]
                best_l2[upd] = l2_sq[improved]
                best_adv[upd] = x[improved]
                best_const[upd] = const[upd]
            if succeeded.any():
                hit = pos[succeeded]
                step_success[hit] = True
                ever_success[hit] = True

            # d(loss)/dx = 2*(x - x0) + c * df/dx ; chain through tanh.
            grad_x = (2.0 * (x - x0_a)
                      + const_f32[sub][:, None, None, None] * grad_f)
            grad_w = grad_x * (0.5 * (1.0 - tanh_w ** 2)).astype(np.float32)

            # Adam update (bias-corrected), matching the reference attack.
            # Active lanes all share the loop timestep: lanes only ever
            # freeze, so a lane's local iteration count equals ``it``.
            m_new = 0.9 * adam_m[sub] + 0.1 * grad_w
            v_new = 0.999 * adam_v[sub] + 0.001 * grad_w * grad_w
            adam_m[sub] = m_new
            adam_v[sub] = v_new
            m_hat = m_new / (1.0 - 0.9 ** (it + 1))
            v_hat = v_new / (1.0 - 0.999 ** (it + 1))
            w[sub] = w[sub] - self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)

            if self.abort_early and (it + 1) % check_every == 0:
                # Per-lane plateau test (the per-example semantics): a
                # lane stalls when its own total loss stops improving.
                total = l2_sq + const[pos] * f_vals
                stalled = total > prev_loss[pos] * 0.9999
                if stalled.any():
                    lanes.freeze(pos[stalled])
                keep = pos[~stalled]
                prev_loss[keep] = total[~stalled]

        return lanes, step_success
