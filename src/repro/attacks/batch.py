"""Masked batch iteration for the optimization attacks.

The EAD / C&W optimize loops advance a whole batch per numpy dispatch:
every per-example quantity — the binary-search bracket (``c_lo`` /
``c_hi`` / ``c``), Adam state, best-so-far scores — is carried as a wide
array with one entry per *lane* (batch row), and a boolean **active
mask** decides which lanes still iterate.  A lane leaves the mask when
its loss plateaus (per-lane early abort); once frozen it is bit-stable:
no later dispatch reads or writes its state.

Model calls are **compacted** to the active lanes (``x[active]``), so a
batch where most lanes have converged costs proportionally less, while
the all-active fast path avoids the gather entirely.  The recorded-
loop-over-wide-arrays structure follows drjit's symbolic loops: Python
controls iteration count, numpy does one wide dispatch per step
regardless of batch size.

Lanes are independent, so running each example alone as a batch of one
and stitching the results gives the same answer up to BLAS reduction
order; the tests check the wide engine against that lane loop.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.attacks.gradients import margin_loss_and_grad, margin_only

class MaskedLanes:
    """Wide-array lane bookkeeping for one masked optimize loop.

    Tracks which lanes are still iterating, how many optimizer
    iterations each lane has consumed, and how many compacted model
    dispatches the loop issued.  The discipline that makes frozen lanes
    bit-stable lives here: every read/write in the loop goes through
    :attr:`sub` (the active-lane gather index), so a frozen lane's state
    is never touched again.
    """

    __slots__ = ("n", "active", "iterations", "dispatches")

    def __init__(self, n: int):
        self.n = int(n)
        self.active = np.ones(self.n, dtype=bool)
        self.iterations = np.zeros(self.n, dtype=np.int64)
        self.dispatches = 0

    def __len__(self) -> int:
        return self.n

    @property
    def count(self) -> int:
        """Number of lanes still iterating."""
        return int(self.active.sum())

    def any_active(self) -> bool:
        return bool(self.active.any())

    @property
    def sub(self) -> Union[slice, np.ndarray]:
        """Gather index for the active lanes.

        Returns ``slice(None)`` while every lane is active (views, no
        copies — the hot all-active phase), an integer index array once
        compaction kicks in.  Valid for both reads (``x[sub]``) and
        scatter writes (``x[sub] = ...``).
        """
        if self.active.all():
            return slice(None)
        return np.flatnonzero(self.active)

    def indices(self) -> np.ndarray:
        """Active lane positions as an index array (always materialized)."""
        return np.flatnonzero(self.active)

    def tick(self, dispatches: int = 1) -> None:
        """Record one loop iteration: every active lane did one
        optimizer step, the model was dispatched ``dispatches`` times."""
        self.iterations[self.active] += 1
        self.dispatches += int(dispatches)

    def freeze(self, lanes: np.ndarray) -> None:
        """Clear the mask for ``lanes`` (positions into the full batch).

        Freezing is one-way: a frozen lane never re-enters the loop, so
        everything written for it so far is final (bit-stable).
        """
        self.active[lanes] = False

    def freeze_where(self, stalled: np.ndarray) -> None:
        """Freeze by a boolean mask over the *active* lanes, in active
        order (the shape loop bodies naturally produce)."""
        sub = self.sub
        if isinstance(sub, slice):
            self.active[np.flatnonzero(stalled)] = False
        else:
            self.active[sub[stalled]] = False


class BatchLoopMixin:
    """Attack-objective hooks shared by the masked batch engine's attacks.

    The optimize loops never call the margin helpers directly; they go
    through these two hooks so adaptive variants (e.g. the
    detector-aware attacks in :mod:`repro.attacks.adaptive`) can fold
    extra differentiable terms into the objective — and into the
    success test — without re-implementing the masked engine.  Both
    assume the mixing class carries ``model`` / ``kappa`` /
    ``targeted``, which every optimization attack does.
    """

    def _attack_loss_and_grad(self, x: np.ndarray, labels: np.ndarray
                              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Attack loss f, its input gradient, and the logits (hook).

        Default: the confidence-κ hinge on the logits (paper eqs.
        (2)/(3)).  Overrides must keep the contract that ``f <= -kappa``
        iff the example counts as successful for this objective.
        """
        return margin_loss_and_grad(self.model, x, labels, self.kappa,
                                    targeted=self.targeted)

    def _attack_loss(self, x: np.ndarray, labels: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Loss values only, no graph (per-iterate success tests; hook)."""
        return margin_only(self.model, x, labels, self.kappa, self.targeted)
