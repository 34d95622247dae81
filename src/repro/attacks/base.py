"""Attack interfaces and result containers.

Every attack in :mod:`repro.attacks` follows one **batch-first**
contract: :meth:`Attack.attack` takes a batch of NCHW inputs plus a
label vector and returns a batched :class:`AttackResult`.  The base
class owns validation, dtype normalization and the ``N=0`` fast path;
concrete attacks implement :meth:`Attack._run` on the already-prepared
batch.  A single example is a batch of one.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np

from repro.nn.backend import flush_kernel_events
from repro.nn.layers import Module
from repro.nn.training import predict_labels


def flat_norms(delta: np.ndarray) -> Dict[str, np.ndarray]:
    """Per-example L0 / L1 / L2 / Linf norms of a perturbation batch."""
    flat = delta.reshape(delta.shape[0], -1)
    return {
        "l0": (np.abs(flat) > 1e-6).sum(axis=1).astype(np.float64),
        "l1": np.abs(flat).sum(axis=1).astype(np.float64),
        "l2": np.sqrt((flat ** 2).sum(axis=1)).astype(np.float64),
        "linf": np.abs(flat).max(axis=1, initial=0.0).astype(np.float64),
    }


@dataclasses.dataclass
class AttackResult:
    """Outcome of one batched attack run.

    ``x_adv`` contains the best adversarial example found per input; rows
    whose ``success`` flag is False contain the unmodified original.
    Distortion entries are per-example; use :meth:`mean_distortion` for
    the success-averaged statistics Table I reports.

    The optimization attacks (EAD, C&W) additionally fill the per-lane
    diagnostics:

    * ``iterations`` — optimizer iterations each lane actually consumed
      across all binary-search steps (masked-out lanes stop counting);
    * ``converged`` — True where the lane's final optimize run froze on
      a loss plateau before exhausting its iteration budget (budget
      exhaustion, the only other way out, leaves it False);
    * ``final_const`` — the per-lane binary-search trade-off constant
      ``c`` after the last binary-search update (``const`` records the
      ``c`` that produced the *best* example instead).
    """

    x_adv: np.ndarray
    success: np.ndarray
    y_true: np.ndarray
    y_adv: np.ndarray
    l0: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    const: Optional[np.ndarray] = None
    name: str = "attack"
    iterations: Optional[np.ndarray] = None
    converged: Optional[np.ndarray] = None
    final_const: Optional[np.ndarray] = None

    @classmethod
    def from_examples(cls, model: Module, x0: np.ndarray, x_adv: np.ndarray,
                      success: np.ndarray, y_true: np.ndarray,
                      const: Optional[np.ndarray] = None,
                      name: str = "attack",
                      iterations: Optional[np.ndarray] = None,
                      converged: Optional[np.ndarray] = None,
                      final_const: Optional[np.ndarray] = None
                      ) -> "AttackResult":
        """Assemble a result, re-deriving labels and distortions."""
        x_adv = np.asarray(x_adv, dtype=np.float32)
        success = np.asarray(success, dtype=bool)
        # Failed rows carry the original image so downstream defense
        # evaluation sees a well-defined (non-adversarial) input.
        x_final = np.where(success[:, None, None, None], x_adv, x0)
        norms = flat_norms(x_final - x0)
        return cls(
            x_adv=x_final,
            success=success,
            y_true=np.asarray(y_true, dtype=np.int64),
            y_adv=predict_labels(model, x_final),
            const=const,
            name=name,
            iterations=iterations,
            converged=converged,
            final_const=final_const,
            **norms,
        )

    @classmethod
    def empty(cls, x0: np.ndarray, labels: np.ndarray,
              name: str = "attack") -> "AttackResult":
        """A zero-example result (the ``N=0`` fast path — no model calls)."""
        x0 = np.asarray(x0, dtype=np.float32)
        zeros = np.zeros(0, dtype=np.float64)
        return cls(
            x_adv=x0[:0].copy(),
            success=np.zeros(0, dtype=bool),
            y_true=np.asarray(labels, dtype=np.int64)[:0],
            y_adv=np.zeros(0, dtype=np.int64),
            l0=zeros, l1=zeros.copy(), l2=zeros.copy(), linf=zeros.copy(),
            const=zeros.copy(),
            name=name,
            iterations=np.zeros(0, dtype=np.int64),
            converged=np.zeros(0, dtype=bool),
            final_const=zeros.copy(),
        )

    @property
    def success_rate(self) -> float:
        """Fraction of inputs for which an adversarial example was found
        (against the *undefended* model — not the defense-level ASR)."""
        return float(self.success.mean()) if len(self.success) else 0.0

    def mean_distortion(self, order: str) -> float:
        """Mean Lp distortion over *successful* examples (paper convention)."""
        values = getattr(self, order)
        if not self.success.any():
            return float("nan")
        return float(values[self.success].mean())

    def __len__(self) -> int:
        return len(self.success)


_CONCAT_FIELDS = ("x_adv", "success", "y_true", "y_adv",
                  "l0", "l1", "l2", "linf",
                  "const", "iterations", "converged", "final_const")


def concat_results(parts: Sequence[AttackResult],
                   name: Optional[str] = None) -> AttackResult:
    """Stitch per-lane (or per-shard) results back into one batch.

    Optional fields (``const``, the diagnostics) survive only when
    present on *every* part.  The per-example reference the batched
    engine is tested against uses it to reassemble lane-at-a-time runs
    in original order.
    """
    if not parts:
        raise ValueError("concat_results needs at least one part")
    fields: Dict[str, Optional[np.ndarray]] = {}
    for field in _CONCAT_FIELDS:
        values = [getattr(part, field) for part in parts]
        if any(v is None for v in values):
            fields[field] = None
        else:
            fields[field] = np.concatenate([np.asarray(v) for v in values])
    return AttackResult(name=name if name is not None else parts[0].name,
                        **fields)


class Attack:
    """Base class: an attack binds a model and exposes ``attack``.

    The public entry point is batch-in/batch-out: subclasses implement
    :meth:`_run` and inherit validation, float32/int64 normalization and
    the empty-batch fast path from :meth:`attack`.
    """

    name = "attack"

    def __init__(self, model: Module):
        self.model = model

    # ------------------------------------------------------------------
    # Batch-first public API
    # ------------------------------------------------------------------
    def attack(self, x0: np.ndarray, labels: np.ndarray) -> AttackResult:
        """Craft adversarial examples for a batch.

        ``x0`` is NCHW in [0, 1]; ``labels`` are true labels for
        untargeted attacks and target labels for targeted ones.  Returns
        a batched :class:`AttackResult` aligned with the input rows.
        """
        x0, labels = self._prepare(x0, labels)
        if x0.shape[0] == 0:
            return AttackResult.empty(x0, labels, name=self.name)
        result = self._run(x0, labels)
        # Attribute this attack's conv dispatch burst in the telemetry log.
        flush_kernel_events()
        return result

    def _run(self, x0: np.ndarray, labels: np.ndarray) -> AttackResult:
        """Attack body on a validated, non-empty float32/int64 batch."""
        raise NotImplementedError  # pragma: no cover

    # ------------------------------------------------------------------
    def _prepare(self, x0: np.ndarray, labels: np.ndarray):
        """Validate and normalize one batch (shared by all entry points)."""
        self._validate_inputs(x0, labels)
        return (np.asarray(x0, dtype=np.float32),
                np.asarray(labels, dtype=np.int64))

    @staticmethod
    def _validate_inputs(x0: np.ndarray, labels: np.ndarray) -> None:
        x0 = np.asarray(x0)
        labels = np.asarray(labels)
        if x0.ndim != 4:
            raise ValueError(f"expected NCHW inputs, got shape {x0.shape}")
        if labels.shape != (x0.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} != ({x0.shape[0]},)")
        lo, hi = float(x0.min(initial=0)), float(x0.max(initial=0))
        if lo < -1e-6 or hi > 1 + 1e-6:
            raise ValueError(f"inputs must lie in [0,1], got range [{lo}, {hi}]")
