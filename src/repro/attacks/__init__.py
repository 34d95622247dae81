"""Adversarial attacks: EAD (the paper's L1 attack), C&W-L2, and baselines.

Every attack follows one batch-first contract — ``attack(x0, labels) ->
AttackResult`` is batch-in/batch-out, constructor knobs are keyword-only
after ``model``, and empty batches short-circuit without touching the
model.  The optimization attacks (EAD, C&W) run on the masked batch
engine in :mod:`repro.attacks.batch`; a single example is a batch of
one.
"""

from repro.attacks.adaptive import (
    BPDAReformedModel,
    DetectorAwareCW,
    DetectorAwareEAD,
    DetectorMarginPenalty,
    bpda_model,
    detector_aware_attack,
    detector_score_graph,
    straight_through,
)
from repro.attacks.base import (
    Attack,
    AttackResult,
    concat_results,
    flat_norms,
)
from repro.attacks.batch import BatchLoopMixin, MaskedLanes
from repro.attacks.carlini_wagner import CarliniWagnerL2
from repro.attacks.deepfool import DeepFool
from repro.attacks.ead import DECISION_RULES, EAD, shrink_threshold
from repro.attacks.fgsm import FGSM, IterativeFGSM
from repro.attacks.graybox import AveragedModel, ReformedModel, graybox_model
from repro.attacks.jsma import JSMA
from repro.attacks.pgd import PGD, MomentumFGSM
from repro.attacks.zoo import RandomNoise, ZOO
from repro.attacks.gradients import (
    attack_margin,
    class_logit_grads,
    cross_entropy_grad,
    frozen_parameters,
    is_successful,
    logits_of,
    margin_loss_and_grad,
    margin_only,
)

__all__ = [
    "Attack",
    "AttackResult",
    "AveragedModel",
    "BPDAReformedModel",
    "BatchLoopMixin",
    "CarliniWagnerL2",
    "DECISION_RULES",
    "DeepFool",
    "DetectorAwareCW",
    "DetectorAwareEAD",
    "DetectorMarginPenalty",
    "EAD",
    "FGSM",
    "IterativeFGSM",
    "JSMA",
    "MaskedLanes",
    "MomentumFGSM",
    "PGD",
    "RandomNoise",
    "ReformedModel",
    "ZOO",
    "attack_margin",
    "bpda_model",
    "class_logit_grads",
    "concat_results",
    "cross_entropy_grad",
    "detector_aware_attack",
    "detector_score_graph",
    "flat_norms",
    "frozen_parameters",
    "graybox_model",
    "straight_through",
    "is_successful",
    "logits_of",
    "margin_loss_and_grad",
    "margin_only",
    "shrink_threshold",
]
