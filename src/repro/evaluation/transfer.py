"""Attack transferability analysis.

The paper's entire threat model rests on *transferability*: examples
crafted on the undefended model transfer to the defended one.  This
module generalizes that measurement to arbitrary model pairs — craft on
a source model, evaluate misclassification on every target model — the
classic transfer-matrix experiment (Papernot et al., 2016).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.attacks.gradients import logits_of
from repro.nn.layers import Module
from repro.runtime.executor import parallel_map, resolve_jobs
from repro.obs import span


def transfer_success(result: AttackResult, target: Module) -> float:
    """Fraction of *source-successful* examples that also fool ``target``.

    Returns NaN when the source attack found nothing (no numerator).
    """
    if not result.success.any():
        return float("nan")
    x = result.x_adv[result.success]
    y = result.y_true[result.success]
    preds = logits_of(target, x).argmax(axis=1)
    return float((preds != y).mean())


def _craft_on_source(payload) -> AttackResult:
    """Worker body: craft the attack bound to one source model."""
    attack_factory, model, x0, y0 = payload
    return attack_factory(model).attack(x0, y0)


def transfer_matrix(attack_factory, models: Mapping[str, Module],
                    x0: np.ndarray, y0: np.ndarray, *,
                    jobs: Optional[int] = 1) -> Dict[str, Dict[str, float]]:
    """Full craft-on-A, evaluate-on-B matrix.

    Args:
        attack_factory: callable ``model -> Attack`` (fresh attack bound
            to each source model).
        models: name -> model mapping; every model is both source and
            target.
        x0, y0: clean seeds and labels (should be correctly classified by
            every model for a clean reading).
        jobs: worker processes to craft the per-source attacks with
            (``1`` = serial, ``None``/``0`` = one per core).  Crafting
            per source model is independent, so the matrix is identical
            for any value; factories that don't pickle (e.g. lambdas)
            degrade to the serial path.

    Returns:
        nested dict ``matrix[source][target]`` = transfer success rate.
    """
    names = list(models)
    with span("transfer/matrix", sources=len(names), batch=len(y0)):
        payloads = [(attack_factory, models[name], x0, y0) for name in names]
        crafted = parallel_map(_craft_on_source, payloads,
                               jobs=resolve_jobs(jobs))
    results: Dict[str, AttackResult] = dict(zip(names, crafted))
    matrix: Dict[str, Dict[str, float]] = {}
    for src, result in results.items():
        matrix[src] = {
            tgt: transfer_success(result, model)
            for tgt, model in models.items()
        }
    return matrix


def self_transfer_consistency(matrix: Mapping[str, Mapping[str, float]]
                              ) -> bool:
    """Diagonal sanity check: an attack always 'transfers' to its source."""
    return all(
        np.isnan(row[src]) or row[src] >= 0.999
        for src, row in matrix.items()
    )
