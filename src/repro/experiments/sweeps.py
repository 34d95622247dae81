"""Confidence-sweep primitives shared by the table/figure experiments.

Every figure in the paper is a sweep of defense accuracy over the attack
confidence κ; every "best ASR" table cell is the max over that sweep.
These helpers pull cached attack results from an
:class:`~repro.experiments.context.ExperimentContext` and score them
against a MagNet variant.

Crafting dominates sweep wall-clock and every (attack, κ, β) cell is
independent, so the sweep helpers route missing cells through
:mod:`repro.runtime`: :func:`precompute_attacks` fans the cells of one
or more contexts out across one process pool and publishes each result
into its context's disk cache under exactly the keys the serial
accessors use.  Workers receive the already-trained classifier and the
already-selected attack seeds, and the attacks themselves are
deterministic, so a parallel sweep is bitwise-identical to a serial
one.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.attacks.base import AttackResult
from repro.attacks.carlini_wagner import CarliniWagnerL2
from repro.attacks.ead import DECISION_RULES, EAD
from repro.defenses.magnet import MagNet
from repro.experiments.context import (
    ExperimentContext,
    _result_to_arrays,
)
from repro.evaluation.metrics import defense_breakdown
from repro.runtime.executor import ParallelExecutor, resolve_jobs
from repro.runtime.faults import (
    FaultPlan,
    ItemFailure,
    RetryPolicy,
    corrupt_cache_entry,
)
from repro.obs import event, span
from repro.utils.cache import stable_hash
from repro.utils.logging import get_logger

log = get_logger(__name__)

#: Namespace the checkpoint manifests live under in the disk cache.
CHECKPOINT_NAMESPACE = "checkpoints"

#: Default fault-tolerance policy for attack sweeps: no per-item timeout
#: (attack wall-clock varies by orders of magnitude across profiles),
#: two retries with exponential backoff starting at 0.25 s.
SWEEP_RETRY_POLICY = RetryPolicy(timeout_s=None, retries=2, backoff_s=0.25)

#: Ordering of the paper's four defense schemes in breakdown figures.
SCHEMES = ("no_defense", "detector_only", "reformer_only", "full")

SCHEME_LABELS = {
    "no_defense": "No defense",
    "detector_only": "With detector",
    "reformer_only": "With reformer",
    "full": "With detector & reformer",
}


# ----------------------------------------------------------------------
# Parallel pre-computation of attack cells
# ----------------------------------------------------------------------
def attack_grid(ctx: ExperimentContext,
                kappas: Optional[Sequence[float]] = None,
                betas: Optional[Sequence[float]] = None,
                include_cw: bool = True) -> List[Dict]:
    """Enumerate the (attack, κ[, β]) cells of a sweep as work items.

    Defaults to the context profile's full κ grid and β list — the pool
    of cells every table/figure of that profile draws from.
    """
    if kappas is None:
        kappas = ctx.profile.kappas(ctx.dataset)
    if betas is None:
        betas = ctx.profile.betas
    cells: List[Dict] = []
    if include_cw:
        cells.extend({"attack": "cw", "kappa": float(k)} for k in kappas)
    cells.extend({"attack": "ead", "beta": float(b), "kappa": float(k)}
                 for b in betas for k in kappas)
    return cells


def _cell_keys(ctx: ExperimentContext, cell: Dict) -> Dict[str, str]:
    """Cache keys a cell publishes, labelled by result slot."""
    if cell["attack"] == "cw":
        return {"cw": ctx._attack_key(ctx._cw_spec(cell["kappa"]))}
    return {
        rule: ctx._attack_key(ctx._ead_spec(cell["beta"], cell["kappa"], rule))
        for rule in DECISION_RULES
    }


def _cell_id(cell: Dict) -> str:
    """Stable human-readable id for a cell (checkpoint manifest key)."""
    if cell["attack"] == "cw":
        return f"cw/k={cell['kappa']:g}"
    return f"ead/b={cell['beta']:g}/k={cell['kappa']:g}"


def _cell_ok(ctx: ExperimentContext, cell: Dict, verify: bool) -> bool:
    for key in _cell_keys(ctx, cell).values():
        if not verify:
            if not ctx.cache.contains("attacks", key):
                return False
            continue
        try:
            ctx.cache.load("attacks", key)
        except KeyError:
            return False
    return True


def missing_cells(ctx: ExperimentContext, cells: Sequence[Dict],
                  verify: bool = False) -> List[Dict]:
    """The subset of cells with at least one uncached result.

    With ``verify=True`` every cached entry is actually loaded, so a
    corrupted artifact (torn write from a killed run, injected fault)
    counts as missing — :class:`~repro.utils.cache.DiskCache` discards
    it on the failed load and the cell is recomputed.  Resume paths use
    this; the cheap existence check is enough for warm-path planning.
    """
    return [cell for cell in cells if not _cell_ok(ctx, cell, verify)]


# ----------------------------------------------------------------------
# Checkpoint manifests
# ----------------------------------------------------------------------
def sweep_checkpoint_key(ctx: ExperimentContext,
                         cells: Sequence[Dict]) -> str:
    """Identity of a sweep: classifier fingerprint + grid + seed count."""
    return stable_hash({
        "clf": ctx.classifier_fingerprint,
        "n_attack": ctx.profile.n_attack(ctx.dataset),
        "seed": ctx.seed,
        "cells": list(cells),
    })


def load_checkpoint(ctx: ExperimentContext, key: str) -> Optional[Dict]:
    """The sweep's checkpoint manifest, or None if absent/unreadable."""
    try:
        return ctx.cache.load_json(CHECKPOINT_NAMESPACE, key)
    except KeyError:
        return None


def _fresh_manifest(ctx: ExperimentContext, cells: Sequence[Dict],
                    jobs: int) -> Dict:
    return {
        "dataset": ctx.dataset,
        "profile": ctx.profile.name,
        "seed": ctx.seed,
        "total": len(cells),
        "done": {},
        "failed": {},
        "status": "running",
        "jobs": jobs,
        "updated": time.time(),
    }


def _save_manifest(ctx: ExperimentContext, key: str, manifest: Dict) -> None:
    manifest["updated"] = time.time()
    ctx.cache.save_json(CHECKPOINT_NAMESPACE, key, manifest)


def _craft_cell(payload) -> Dict[str, Dict]:
    """Worker body: craft one attack cell against a pickled classifier.

    Each cell is one *batched* attack run — the whole seed batch
    advances through the masked batch engine in a single dispatch
    stream per iteration.
    Returns ``{slot: arrays}`` (slot ``"cw"`` or a decision rule) so the
    parent can publish under the context's cache keys; workers never
    touch the cache directly, which keeps cache-write ordering with the
    parent deterministic.
    """
    classifier, profile, x0, y0, cell = payload
    if cell["attack"] == "cw":
        attack = CarliniWagnerL2.from_profile(classifier, profile,
                                              kappa=cell["kappa"])
        return {"cw": _result_to_arrays(attack.attack(x0, y0))}
    attack = EAD.from_profile(classifier, profile, beta=cell["beta"],
                              kappa=cell["kappa"])
    both = attack.attack_both(x0, y0)
    return {rule: _result_to_arrays(both[rule]) for rule in DECISION_RULES}


class _Sweep:
    """One context's share of a :func:`precompute_attacks` call: its grid,
    the cells still missing, and its checkpoint manifest (created, or
    loaded on ``resume``, and saved before any cell runs)."""

    def __init__(self, ctx: ExperimentContext, cells: List[Dict],
                 todo: List[Dict], resume: bool, jobs: int):
        self.ctx, self.cells, self.todo = ctx, cells, todo
        self.key = sweep_checkpoint_key(ctx, cells)
        manifest = load_checkpoint(ctx, self.key) if resume else None
        if manifest is None:
            manifest = _fresh_manifest(ctx, cells, jobs)
        else:
            log.info("resuming sweep %s on %s: %d/%d cells already done, "
                     "%d previously failed", self.key, ctx.dataset,
                     len(cells) - len(todo), len(cells),
                     len(manifest.get("failed", {})))
            manifest["failed"] = {}      # previously-failed cells get retried
            manifest["status"] = "running"
            manifest["jobs"] = jobs
        for cell in cells:
            if cell not in todo:
                manifest["done"].setdefault(_cell_id(cell), {})
        self.manifest = manifest
        self.save()

    def save(self) -> None:
        _save_manifest(self.ctx, self.key, self.manifest)

    def payload(self, cell: Dict) -> tuple:
        """:func:`_craft_cell`'s input.  The classifier and seeds are
        materialized in the parent, so workers never train or select
        (and results cannot depend on worker-local state)."""
        x0, y0 = self.ctx.attack_seeds()
        return (self.ctx.classifier, self.ctx.profile, x0, y0, cell)

    def heal(self) -> int:
        """Recraft, serially, every cell that "completed" but whose
        artifact is unreadable (injected corruption, torn write);
        determinism makes the healed artifact bitwise-identical."""
        failed_ids = set(self.manifest["failed"])
        suspect = [c for c in self.cells if _cell_id(c) not in failed_ids]
        healed = missing_cells(self.ctx, suspect, verify=True)
        for cell in healed:
            log.warning("healing unreadable cell %s on %s", _cell_id(cell),
                        self.ctx.dataset)
            keys = _cell_keys(self.ctx, cell)
            for slot, arrays in _craft_cell(self.payload(cell)).items():
                self.ctx.cache.save("attacks", keys[slot], arrays,
                                    meta={"cell": cell, "slot": slot})
            self.manifest["done"][_cell_id(cell)] = {
                "keys": sorted(keys.values()), "healed": True}
        return len(healed)


def precompute_attacks(*contexts: ExperimentContext,
                       kappas: Optional[Sequence[float]] = None,
                       betas: Optional[Sequence[float]] = None,
                       include_cw: bool = True,
                       jobs: Optional[int] = None,
                       resume: bool = False,
                       policy: Optional[RetryPolicy] = None,
                       fault_plan: Optional[FaultPlan] = None
                       ) -> Dict[str, int]:
    """Craft every uncached cell of each context's sweep in one map.

    After this returns, the serial accessors (``ctx.cw``/``ctx.ead``)
    are pure cache hits for the covered grid of every context.  Returns
    a summary dict (``computed``/``cached``/``jobs``/``failed``/
    ``healed``) totalled over the contexts.

    Each context plans its own sweep (missing cells, checkpoint
    manifest, pinned keys); the missing cells of all contexts, in
    argument order and each context's grid order, then run through one
    :class:`~repro.runtime.executor.ParallelExecutor` map, so one pool
    of ``min(jobs, cells)`` workers serves every dataset of an
    experiment.  ``jobs``, ``policy`` and ``fault_plan`` default to the
    first context's hints.

    The sweep is fault-tolerant and resumable:

    * Cells run under ``policy`` (default :data:`SWEEP_RETRY_POLICY`):
      per-item timeout, bounded retry with exponential backoff, and
      crashed-cell re-dispatch on a worker crash.  A cell that exhausts
      its retries is recorded as failed — in its context's checkpoint
      manifest and as ``sweep/cell_failed`` telemetry — instead of
      aborting the sweep; every healthy cell still completes.
    * Every completed cell is published to its context's disk cache
      *and* noted in that context's atomically-rewritten checkpoint
      manifest (``checkpoints/<sweep-key>.json``) as it finishes, so a
      killed run resumes from the last completed cell.  ``resume=True``
      additionally load-verifies cached artifacts (a corrupt entry
      counts as missing) and retries previously-failed cells.
    * ``fault_plan`` injects deterministic chaos (crashes, hangs,
      transient faults, corrupted cache reads) for testing; its item
      indices count the missing cells across all contexts.  Because
      retries reuse per-cell seeds and attacks are deterministic, a
      faulted run that completes is bitwise-identical to a clean one.
    """
    if not contexts:
        raise TypeError("precompute_attacks() needs at least one context")
    first = contexts[0]
    jobs = resolve_jobs(first.jobs if jobs is None else jobs)
    if policy is None:
        policy = getattr(first, "retry_policy", None) or SWEEP_RETRY_POLICY
    if fault_plan is None:
        fault_plan = getattr(first, "fault_plan", None)
    summary = {"computed": 0, "cached": 0, "jobs": jobs, "failed": 0,
               "healed": 0}
    sweeps: List[_Sweep] = []
    for ctx in contexts:
        cells = attack_grid(ctx, kappas=kappas, betas=betas,
                            include_cw=include_cw)
        todo = missing_cells(ctx, cells, verify=resume)
        summary["computed"] += len(todo)
        summary["cached"] += len(cells) - len(todo)
        if todo:
            sweeps.append(_Sweep(ctx, cells, todo, resume, jobs))
    if not sweeps:
        return summary

    # One work item per missing cell; the index is the fault-plan index.
    items = [(sweep, cell) for sweep in sweeps for cell in sweep.todo]
    datasets = ",".join(sweep.ctx.dataset for sweep in sweeps)
    with span("sweep/precompute", datasets=datasets, cells=len(items),
              jobs=jobs, resume=resume or None) as evt:
        payloads = [sweep.payload(cell) for sweep, cell in items]
        if fault_plan is not None:
            log.warning("sweep chaos mode: %s", fault_plan.describe())
        log.info("precomputing %d attack cells on %s with %d workers",
                 len(items), datasets, jobs)

        pinned: List[tuple] = []

        def publish(index: int, arrays_by_slot: Dict) -> None:
            """Publish one completed cell + checkpoint it, incrementally.

            Published keys are pinned until the sweep finishes: the
            checkpoint manifest references them, so a size-capped store
            must not LRU-evict them out from under the resume contract.
            """
            sweep, cell = items[index]
            cache = sweep.ctx.cache
            keys = _cell_keys(sweep.ctx, cell)
            paths = []
            for slot, arrays in arrays_by_slot.items():
                cache.pin("attacks", keys[slot])
                pinned.append((cache, keys[slot]))
                paths.append(cache.save(
                    "attacks", keys[slot], arrays,
                    meta={"cell": cell, "slot": slot}))
            if fault_plan is not None and fault_plan.corrupts_item(index):
                log.warning("injecting cache corruption into cell %s",
                            _cell_id(cell))
                corrupt_cache_entry(paths[0])
            sweep.manifest["done"][_cell_id(cell)] = {
                "keys": sorted(keys.values())}
            sweep.save()

        executor = ParallelExecutor(jobs, policy=policy,
                                    fault_plan=fault_plan, on_error="record")
        try:
            outputs = executor.map(_craft_cell, payloads, on_result=publish)
        finally:
            for cache, key in pinned:
                cache.unpin("attacks", key)

        for (sweep, cell), output in zip(items, outputs):
            if isinstance(output, ItemFailure):
                summary["failed"] += 1
                sweep.manifest["failed"][_cell_id(cell)] = {
                    "kind": output.kind, "error": output.error,
                    "attempts": output.attempts,
                }
                event("sweep/cell_failed", dataset=sweep.ctx.dataset,
                      cell=_cell_id(cell), reason=output.kind,
                      attempts=output.attempts)
                log.error("sweep cell %s on %s failed terminally (%s after "
                          "%d attempts): %s", _cell_id(cell),
                          sweep.ctx.dataset, output.kind, output.attempts,
                          output.error)

        for sweep in sweeps:
            if fault_plan is not None:
                summary["healed"] += sweep.heal()
            sweep.manifest["status"] = ("partial" if sweep.manifest["failed"]
                                        else "complete")
            sweep.save()
        evt["failed"] = summary["failed"] or None
    return summary


def _warm(ctx, kappas: Sequence[float], betas: Sequence[float],
          include_cw: bool, jobs: Optional[int]) -> None:
    """Precompute cells ahead of a serial read loop when parallelism is on."""
    if not isinstance(ctx, ExperimentContext):
        return  # stub contexts in unit tests
    jobs = resolve_jobs(ctx.jobs if jobs is None else jobs)
    if jobs > 1:
        precompute_attacks(ctx, kappas=kappas, betas=betas,
                           include_cw=include_cw, jobs=jobs)


def attack_result(ctx: ExperimentContext, attack: str, kappa: float,
                  beta: float = 1e-1, rule: str = "en") -> AttackResult:
    """Fetch one cached attack result by family name.

    ``attack`` is ``"cw"`` or ``"ead"`` (the latter selected by β + rule).
    """
    if attack == "cw":
        return ctx.cw(kappa)
    if attack == "ead":
        return ctx.ead(beta, kappa)[rule]
    raise KeyError(f"unknown attack family {attack!r}; expected 'cw' or 'ead'")


def accuracy_curves(ctx: ExperimentContext, magnet: MagNet,
                    kappas: Sequence[float], beta: float = 1e-1, *,
                    jobs: Optional[int] = None) -> Dict[str, List[float]]:
    """The three curves of Figures 2/3: C&W, EAD-L1, EAD-EN vs κ.

    ``jobs`` (default: the context's ``jobs`` hint) fans uncached cells
    out across worker processes before the serial scoring loop.
    """
    _warm(ctx, kappas, [beta], True, jobs)
    curves: Dict[str, List[float]] = {
        "C&W L2 attack": [],
        f"EAD-L1 beta={beta:g}": [],
        f"EAD-EN beta={beta:g}": [],
    }
    for kappa in kappas:
        cw = ctx.cw(kappa)
        ead = ctx.ead(beta, kappa)
        _, y0 = ctx.attack_seeds()
        curves["C&W L2 attack"].append(magnet.defense_accuracy(cw.x_adv, y0))
        curves[f"EAD-L1 beta={beta:g}"].append(
            magnet.defense_accuracy(ead["l1"].x_adv, y0))
        curves[f"EAD-EN beta={beta:g}"].append(
            magnet.defense_accuracy(ead["en"].x_adv, y0))
    return curves


def breakdown_curves(ctx: ExperimentContext, magnet: MagNet,
                     kappas: Sequence[float],
                     fetch: Callable[[float], AttackResult]
                     ) -> Dict[str, List[float]]:
    """Four defense-scheme curves (supplementary figure panels) vs κ."""
    series: Dict[str, List[float]] = {SCHEME_LABELS[s]: [] for s in SCHEMES}
    _, y0 = ctx.attack_seeds()
    for kappa in kappas:
        result = fetch(kappa)
        bd = defense_breakdown(magnet, result.x_adv, y0).as_dict()
        for scheme in SCHEMES:
            series[SCHEME_LABELS[scheme]].append(bd[scheme])
    return series


def best_asr(ctx: ExperimentContext, magnet: MagNet, kappas: Sequence[float],
             beta: float, rule: str, *, jobs: Optional[int] = None) -> float:
    """Best-over-κ EAD attack success rate vs a variant (Tables IV/VII cells)."""
    _warm(ctx, kappas, [beta], False, jobs)
    _, y0 = ctx.attack_seeds()
    rates = [
        magnet.attack_success_rate(ctx.ead(beta, kappa)[rule].x_adv, y0)
        for kappa in kappas
    ]
    return float(max(rates))


def best_asr_row(ctx: ExperimentContext, magnets: Dict[str, MagNet],
                 kappas: Sequence[float], beta: float, rule: str
                 ) -> Dict[str, float]:
    """One table row: best EAD ASR per MagNet variant."""
    return {
        variant: best_asr(ctx, magnet, kappas, beta, rule)
        for variant, magnet in magnets.items()
    }


def cw_best(ctx: ExperimentContext, magnet: MagNet, kappas: Sequence[float],
            *, jobs: Optional[int] = None) -> Dict[str, float]:
    """C&W's best-over-κ ASR and the distortions at that κ (Table I row)."""
    _warm(ctx, kappas, [], True, jobs)
    _, y0 = ctx.attack_seeds()
    best = {"asr": -1.0, "kappa": float("nan"), "l1": float("nan"),
            "l2": float("nan")}
    for kappa in kappas:
        result = ctx.cw(kappa)
        asr = magnet.attack_success_rate(result.x_adv, y0)
        if asr > best["asr"]:
            best = {"asr": asr, "kappa": float(kappa),
                    "l1": result.mean_distortion("l1"),
                    "l2": result.mean_distortion("l2")}
    return best


def ead_best(ctx: ExperimentContext, magnet: MagNet, kappas: Sequence[float],
             beta: float, rule: str, *, jobs: Optional[int] = None
             ) -> Dict[str, float]:
    """EAD's best-over-κ ASR and distortions at that κ (Table I rows)."""
    _warm(ctx, kappas, [beta], False, jobs)
    _, y0 = ctx.attack_seeds()
    best = {"asr": -1.0, "kappa": float("nan"), "l1": float("nan"),
            "l2": float("nan")}
    for kappa in kappas:
        result = ctx.ead(beta, kappa)[rule]
        asr = magnet.attack_success_rate(result.x_adv, y0)
        if asr > best["asr"]:
            best = {"asr": asr, "kappa": float(kappa),
                    "l1": result.mean_distortion("l1"),
                    "l2": result.mean_distortion("l2")}
    return best
