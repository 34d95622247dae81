"""Execute scenario cells against calibrated MagNet pipelines.

:func:`execute_scenario` is the pure cell body: given the scenario, the
models it needs and a seed batch, it crafts the threat model's
adversarial examples (or applies the corruption) and scores them with
the full MagNet decision — reporting attack success against the
defended pipeline, the misclassification and detection-bypass rates
separately, and the paper's four-scheme defense breakdown.

:func:`run_scenarios` is the sweep driver, mirroring
:mod:`repro.experiments.sweeps`: cells fan out across a
:class:`~repro.runtime.executor.ParallelExecutor` pool, every completed
cell is published to the disk cache under a seed- and
fingerprint-stable key and noted in an atomically-rewritten checkpoint
manifest, and ``resume=True`` load-verifies cached outcomes so a killed
run restarts from the last completed cell.  Cells are deterministic,
so a resumed or parallel sweep is bitwise-identical to a serial one.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.adaptive import (
    BPDAReformedModel,
    DetectorAwareCW,
    DetectorAwareEAD,
)
from repro.attacks.carlini_wagner import CarliniWagnerL2
from repro.attacks.ead import EAD
from repro.attacks.graybox import ReformedModel
from repro.datasets.corruptions import corrupt
from repro.defenses.magnet import MagNet
from repro.evaluation.metrics import DefenseBreakdown
from repro.experiments.context import ExperimentContext
from repro.models.classifiers import ScaledLogits
from repro.nn.layers import Module
from repro.obs import counter, event, span
from repro.runtime.executor import ParallelExecutor, resolve_jobs
from repro.runtime.faults import FaultPlan, ItemFailure, RetryPolicy
from repro.scenarios.registry import Scenario, SweepCell
from repro.utils.cache import stable_hash
from repro.utils.logging import get_logger

log = get_logger(__name__)

#: Disk-cache namespace for per-cell outcome documents.
OUTCOME_NAMESPACE = "scenarios"

#: Namespace for the sweep checkpoint manifests.
CHECKPOINT_NAMESPACE = "checkpoints"

#: Default fault policy: like attack sweeps, no per-item timeout, two
#: retries with short exponential backoff.
SCENARIO_RETRY_POLICY = RetryPolicy(timeout_s=None, retries=2, backoff_s=0.25)


@dataclasses.dataclass(frozen=True)
class ScenarioOutcome:
    """Scores of one scenario cell against the full defended pipeline."""

    scenario_id: str
    dataset: str
    defense_variant: str
    threat_model: str
    attack: str
    workload: str
    seed: int
    n: int
    #: Fraction the attack itself marked successful against its craft
    #: model (NaN for corruption rows — nothing is crafted).
    craft_success_rate: float
    #: Paper ASR vs the full defense: neither detected nor corrected.
    attack_success_rate: float
    #: Wrong label after reforming, ignoring detection.
    misclassification_rate: float
    #: Flagged by at least one detector.
    detection_rate: float
    #: 1 − detection rate: the detector-evasion axis, reported per cell.
    detection_bypass_rate: float
    #: Wrong raw label with no defense at all.
    undefended_error_rate: float
    mean_l1: float
    mean_l2: float
    #: The paper's four defense schemes (accuracy under each).
    breakdown: Dict[str, float]

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ScenarioOutcome":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in fields})


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def build_craft_model(scenario: Scenario, classifier: Module, magnet: MagNet,
                      surrogate_classifier: Optional[Module] = None
                      ) -> Optional[Module]:
    """The model the attacker differentiates, per threat model.

    * ``oblivious`` — the undefended classifier (the paper's setting);
    * ``transfer`` — an independently trained surrogate classifier;
    * ``graybox`` — ``classifier(AE(x))``, gradients through the AE;
    * ``bpda`` — exact defended forward, identity backward;
    * ``detector_aware`` — the BPDA pipeline (detectors join the loss);
    * ``corruption`` — nothing is crafted (returns None).
    """
    tm = scenario.threat_model
    if tm == "oblivious":
        return classifier
    if tm == "transfer":
        if surrogate_classifier is None:
            raise ValueError(
                "transfer scenarios need a surrogate classifier")
        return surrogate_classifier
    if tm == "graybox":
        if magnet.reformer is None:
            raise ValueError(f"{scenario} needs a reformer in the defense")
        return ReformedModel(magnet.reformer.autoencoder, magnet.classifier)
    if tm in ("bpda", "detector_aware"):
        if magnet.reformer is None:
            raise ValueError(f"{scenario} needs a reformer in the defense")
        return BPDAReformedModel(magnet.reformer, magnet.classifier)
    if tm == "corruption":
        return None
    raise ValueError(f"unhandled threat model {tm!r}")


def build_attack(scenario: Scenario, model: Module, magnet: MagNet,
                 attack_params: Optional[Mapping] = None):
    """Instantiate the scenario's attack bound to its craft model.

    ``attack_params`` carries the optimization budget
    (``binary_search_steps`` / ``max_iterations`` / ``lr`` /
    ``initial_const``); scenario params supply the objective knobs
    (``kappa``, ``beta``, ``detector_weight``, ``threshold_frac``).
    """
    p = scenario.params_dict
    budget = dict(attack_params or {})
    budget["kappa"] = float(p.get("kappa", 0.0))
    family = scenario.attack
    if family in ("ead_l1", "ead_en"):
        budget["beta"] = float(p.get("beta", 1e-2))
        budget["rule"] = "l1" if family == "ead_l1" else "en"
    if scenario.threat_model == "detector_aware":
        aware = dict(detector_weight=float(p.get("detector_weight", 1.0)),
                     threshold_frac=float(p.get("threshold_frac", 0.95)))
        if family == "cw":
            return DetectorAwareCW(model, magnet.detectors, **aware, **budget)
        return DetectorAwareEAD(model, magnet.detectors, **aware, **budget)
    if family == "cw":
        return CarliniWagnerL2(model, **budget)
    return EAD(model, **budget)


def execute_scenario(scenario: Scenario, *, classifier: Module,
                     magnet: MagNet, x0: np.ndarray, y0: np.ndarray,
                     seed: int = 0,
                     attack_params: Optional[Mapping] = None,
                     surrogate_classifier: Optional[Module] = None
                     ) -> ScenarioOutcome:
    """Run one cell: craft (or corrupt), then score the full defense."""
    with span("scenario/cell", scenario=scenario.scenario_id,
              threat=scenario.threat_model, n=len(x0)) as evt:
        if scenario.workload == "corruption":
            severity = int(scenario.params_dict.get("severity", 3))
            x_adv = corrupt(x0, scenario.attack, severity, seed=seed)
            craft_success = float("nan")
        else:
            model = build_craft_model(scenario, classifier, magnet,
                                      surrogate_classifier)
            attack = build_attack(scenario, model, magnet, attack_params)
            result = attack.attack(x0, y0)
            x_adv = result.x_adv
            craft_success = float(result.success.mean())

        outcome = score_scenario(scenario, magnet, x0, x_adv, y0,
                                 seed=seed, craft_success=craft_success)
        evt["asr"] = round(outcome.attack_success_rate, 4)
        evt["bypass"] = round(outcome.detection_bypass_rate, 4)
        counter("scenario/cells").inc()
        return outcome


def score_scenario(scenario: Scenario, magnet: MagNet, x0: np.ndarray,
                   x_adv: np.ndarray, y0: np.ndarray, *, seed: int,
                   craft_success: float) -> ScenarioOutcome:
    """Score already-crafted inputs with one full MagNet decision."""
    decision = magnet.decide(x_adv)
    y0 = np.asarray(y0)
    breakdown = DefenseBreakdown.from_decision(decision, y0)
    delta = (np.asarray(x_adv, dtype=np.float64)
             - np.asarray(x0, dtype=np.float64)).reshape(len(y0), -1)
    return ScenarioOutcome(
        scenario_id=scenario.scenario_id,
        dataset=scenario.dataset,
        defense_variant=scenario.defense_variant,
        threat_model=scenario.threat_model,
        attack=scenario.attack,
        workload=scenario.workload,
        seed=int(seed),
        n=int(len(y0)),
        craft_success_rate=craft_success,
        # MagNet.attack_success_rate, read off the same decision.
        attack_success_rate=1.0 - breakdown.full if len(y0) else 0.0,
        misclassification_rate=float(
            (decision.labels_reformed != y0).mean()),
        detection_rate=float(decision.detected.mean()),
        detection_bypass_rate=float(1.0 - decision.detected.mean()),
        undefended_error_rate=float((decision.labels_raw != y0).mean()),
        mean_l1=float(np.abs(delta).sum(axis=1).mean()),
        mean_l2=float(np.sqrt((delta ** 2).sum(axis=1)).mean()),
        breakdown=breakdown.as_dict(),
    )


# ----------------------------------------------------------------------
# Sweep driver: checkpointed, resumable, parallel
# ----------------------------------------------------------------------
def default_attack_params(profile, family: str) -> Dict[str, float]:
    """The profile's optimization budget for one attack family."""
    return {
        "binary_search_steps": profile.binary_search_steps,
        "max_iterations": profile.max_iterations,
        "initial_const": profile.initial_const,
        "lr": profile.cw_lr if family == "cw" else profile.ead_lr,
    }


def scenario_cell_key(ctx: ExperimentContext, cell: SweepCell,
                      attack_params: Optional[Mapping] = None) -> str:
    """Cache key of one cell: scenario id + seed + experiment identity."""
    if attack_params is None and cell.scenario.workload == "adversarial":
        attack_params = default_attack_params(ctx.profile,
                                              cell.scenario.attack)
    return stable_hash({
        "scenario": cell.scenario.scenario_id,
        "cell_seed": cell.seed,
        "clf": ctx.classifier_fingerprint,
        "n_attack": ctx.profile.n_attack(ctx.dataset),
        "seed": ctx.seed,
        "attack_params": dict(attack_params or {}),
    })


def _cell_ok(ctx: ExperimentContext, cell: SweepCell, verify: bool) -> bool:
    # Outcome documents are small JSON files, so the verify pass simply
    # loads them — DiskCache discards a torn/corrupt document on the
    # failed load and the cell is recomputed.
    key = scenario_cell_key(ctx, cell)
    try:
        ctx.cache.load_json(OUTCOME_NAMESPACE, key)
        return True
    except KeyError:
        return False


def missing_cells(cells: Sequence[SweepCell],
                  contexts: Mapping[str, ExperimentContext],
                  verify: bool = False) -> List[SweepCell]:
    """Cells without a (readable, when ``verify``) cached outcome."""
    return [cell for cell in cells
            if not _cell_ok(contexts[cell.scenario.dataset], cell, verify)]


def _surrogate_classifier(ctx: ExperimentContext) -> Module:
    """An independently trained classifier for the transfer threat model.

    Trained from a different seed than the defended classifier but
    scaled identically, so κ means the same thing in both settings.
    """
    from repro.models.zoo import ClassifierSpec

    spec = ClassifierSpec(dataset=ctx.dataset, seed=ctx.seed + 1,
                          epochs=ctx.profile.classifier_epochs)
    base = ctx.zoo.classifier(spec)
    scale = ctx.profile.logit_scale(ctx.dataset)
    return ScaledLogits(base, scale) if scale != 1.0 else base


def _run_cell(payload) -> Dict:
    """Worker body: one scenario cell end to end, returns the outcome doc."""
    (scenario, seed, classifier, magnet, surrogate, x0, y0,
     attack_params) = payload
    outcome = execute_scenario(
        scenario, classifier=classifier, magnet=magnet, x0=x0, y0=y0,
        seed=seed, attack_params=attack_params,
        surrogate_classifier=surrogate)
    return outcome.to_dict()


def _checkpoint_key(cells: Sequence[SweepCell],
                    contexts: Mapping[str, ExperimentContext]) -> str:
    datasets = sorted({c.scenario.dataset for c in cells})
    return stable_hash({
        "cells": [(c.scenario.scenario_id, c.seed) for c in cells],
        "contexts": {
            ds: {"clf": contexts[ds].classifier_fingerprint,
                 "profile": contexts[ds].profile.name,
                 "seed": contexts[ds].seed}
            for ds in datasets
        },
    })


def run_scenarios(cells: Sequence[SweepCell],
                  contexts: Mapping[str, ExperimentContext], *,
                  jobs: Optional[int] = None, resume: bool = False,
                  policy: Optional[RetryPolicy] = None,
                  fault_plan: Optional[FaultPlan] = None
                  ) -> Dict[str, ScenarioOutcome]:
    """Run every cell, fanning uncached ones out across ``jobs`` workers.

    ``contexts`` maps dataset name to the :class:`ExperimentContext`
    whose models/seeds/cache that dataset's cells use.  Completed cells
    are published as JSON outcome documents and checkpointed in an
    atomically-rewritten manifest; ``resume=True`` load-verifies cached
    outcomes (a corrupt document counts as missing) so interrupted
    sweeps restart from the last completed cell.  ``fault_plan``
    injects deterministic chaos into the workers (``--inject-faults``);
    the outcome documents are byte-identical with or without it.
    Returns every requested cell's outcome, keyed by scenario id.
    """
    cells = sorted(cells, key=lambda c: (c.scenario.scenario_id, c.seed))
    for cell in cells:
        if cell.scenario.dataset not in contexts:
            raise KeyError(
                f"no context for dataset {cell.scenario.dataset!r} "
                f"(needed by {cell.scenario})")
    jobs = resolve_jobs(jobs if jobs is not None else 1)
    policy = policy or SCENARIO_RETRY_POLICY
    todo = missing_cells(cells, contexts, verify=resume)

    ckpt_ctx = contexts[cells[0].scenario.dataset] if cells else None
    with span("scenario/sweep", cells=len(cells), todo=len(todo),
              jobs=jobs, resume=resume or None) as evt:
        if todo:
            ckpt_key = _checkpoint_key(cells, contexts)
            manifest = None
            if resume:
                try:
                    manifest = ckpt_ctx.cache.load_json(
                        CHECKPOINT_NAMESPACE, ckpt_key)
                except KeyError:
                    manifest = None
            if manifest is None:
                manifest = {"total": len(cells), "done": {}, "failed": {},
                            "status": "running", "jobs": jobs,
                            "updated": time.time()}
            else:
                log.info("resuming scenario sweep %s: %d/%d cells done, "
                         "%d previously failed", ckpt_key,
                         len(cells) - len(todo), len(cells),
                         len(manifest.get("failed", {})))
                manifest["failed"] = {}
                manifest["status"] = "running"
                manifest["jobs"] = jobs

            def save_manifest() -> None:
                manifest["updated"] = time.time()
                ckpt_ctx.cache.save_json(CHECKPOINT_NAMESPACE, ckpt_key,
                                         manifest)

            for cell in cells:
                if cell not in todo:
                    manifest["done"].setdefault(cell.scenario.scenario_id, {})
            save_manifest()

            # Materialize shared inputs once, in the parent, so workers
            # cannot train models or diverge on worker-local state.
            payloads = []
            surrogates: Dict[str, Optional[Module]] = {}
            for cell in todo:
                s = cell.scenario
                ctx = contexts[s.dataset]
                surrogate = None
                if s.threat_model == "transfer":
                    if s.dataset not in surrogates:
                        surrogates[s.dataset] = _surrogate_classifier(ctx)
                    surrogate = surrogates[s.dataset]
                x0, y0 = ctx.attack_seeds()
                params = (default_attack_params(ctx.profile, s.attack)
                          if s.workload == "adversarial" else None)
                payloads.append((s, cell.seed, ctx.classifier,
                                 ctx.magnet(s.defense_variant), surrogate,
                                 x0, y0, params))
            log.info("running %d/%d scenario cells with %d workers",
                     len(todo), len(cells), jobs)

            def publish(index: int, doc: Dict) -> None:
                cell = todo[index]
                ctx = contexts[cell.scenario.dataset]
                key = scenario_cell_key(ctx, cell)
                ctx.cache.save_json(OUTCOME_NAMESPACE, key, doc)
                manifest["done"][cell.scenario.scenario_id] = {"key": key}
                save_manifest()

            executor = ParallelExecutor(jobs, policy=policy,
                                        fault_plan=fault_plan,
                                        on_error="record")
            outputs = executor.map(_run_cell, payloads, on_result=publish)
            for cell, output in zip(todo, outputs):
                if isinstance(output, ItemFailure):
                    sid = cell.scenario.scenario_id
                    manifest["failed"][sid] = {
                        "kind": output.kind, "error": output.error,
                        "attempts": output.attempts}
                    event("scenario/cell_failed", cell=sid,
                          reason=output.kind, attempts=output.attempts)
                    log.error("scenario cell %s failed terminally (%s): %s",
                              sid, output.kind, output.error)
            manifest["status"] = ("partial" if manifest["failed"]
                                  else "complete")
            save_manifest()
            evt["failed"] = len(manifest["failed"]) or None

        outcomes = load_outcomes(cells, contexts)
        evt["loaded"] = len(outcomes)
    return outcomes


def load_outcomes(cells: Sequence[SweepCell],
                  contexts: Mapping[str, ExperimentContext]
                  ) -> Dict[str, ScenarioOutcome]:
    """Cached outcomes for ``cells`` (cells still missing are skipped)."""
    outcomes: Dict[str, ScenarioOutcome] = {}
    for cell in cells:
        ctx = contexts[cell.scenario.dataset]
        key = scenario_cell_key(ctx, cell)
        try:
            doc = ctx.cache.load_json(OUTCOME_NAMESPACE, key)
        except KeyError:
            continue
        outcomes[cell.scenario.scenario_id] = ScenarioOutcome.from_dict(doc)
    return outcomes
