"""Shared experiment state: data, models, defenses, and cached attacks.

An :class:`ExperimentContext` binds one dataset to one profile and hands
out every artifact the table/figure experiments need.  Adversarial
examples are crafted against the *undefended* (scaled) classifier only —
the oblivious threat model — and cached on disk keyed by the classifier
fingerprint and the full attack configuration, so the ~20 experiments
share one pool of attack sweeps.  The generated train/val/test splits
are stored too (namespace ``datasets``), so a context over a store that
already holds them loads its data instead of rendering it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.metadata
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.attacks.base import AttackResult
from repro.attacks.carlini_wagner import CarliniWagnerL2
from repro.attacks.deepfool import DeepFool
from repro.attacks.ead import DECISION_RULES, EAD
from repro.attacks.fgsm import FGSM, IterativeFGSM
from repro.datasets import load_digit_splits, load_object_splits
from repro.datasets.base import DataSplits
from repro.defenses.magnet import MagNet
from repro.defenses.variants import build_magnet
from repro.evaluation.protocol import select_attack_seeds
from repro.experiments.config import PROFILES, ExperimentProfile, current_profile
from repro.models.classifiers import ScaledLogits
from repro.models.zoo import ClassifierSpec, ModelZoo, register_model_builder
from repro.nn.backend import check_kernel
from repro.nn.layers import Module
from repro.obs import span
from repro.utils.cache import DiskCache, default_cache, stable_hash
from repro.utils.logging import get_logger

log = get_logger(__name__)

_RESULT_FIELDS = ("x_adv", "success", "y_true", "y_adv",
                  "l0", "l1", "l2", "linf", "const")

#: Per-lane diagnostics (PR 6) — persisted when present, tolerated as
#: missing so artifacts cached before the batch engine still load.
_DIAG_FIELDS = ("iterations", "converged", "final_const")


def _result_to_arrays(result: AttackResult) -> Dict[str, np.ndarray]:
    arrays = {}
    for field in _RESULT_FIELDS:
        value = getattr(result, field)
        if value is None:
            value = np.full(len(result), np.nan)
        arrays[field] = np.asarray(value)
    for field in _DIAG_FIELDS:
        value = getattr(result, field)
        if value is not None:
            arrays[field] = np.asarray(value)
    return arrays


def _result_from_arrays(arrays: Dict[str, np.ndarray], name: str) -> AttackResult:
    iterations = arrays.get("iterations")
    converged = arrays.get("converged")
    return AttackResult(
        x_adv=arrays["x_adv"].astype(np.float32),
        success=arrays["success"].astype(bool),
        y_true=arrays["y_true"].astype(np.int64),
        y_adv=arrays["y_adv"].astype(np.int64),
        l0=arrays["l0"], l1=arrays["l1"], l2=arrays["l2"], linf=arrays["linf"],
        const=arrays["const"],
        name=name,
        iterations=None if iterations is None else iterations.astype(np.int64),
        converged=None if converged is None else converged.astype(bool),
        final_const=arrays.get("final_const"),
    )


def _version(dist: str) -> Optional[str]:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


@functools.lru_cache(maxsize=None)
def generator_digest() -> str:
    """Digest of what generated pixels depend on besides their arguments.

    That is the source of every :mod:`repro.datasets` module and of
    :mod:`repro.utils.rng`, and the numpy version (read from package
    metadata).  Rendering is numpy only, so scipy's version is not part
    of it.  Editing a generator therefore invalidates the stored splits
    instead of serving stale pixels.
    """
    import repro.datasets
    import repro.utils.rng

    sources = sorted(Path(repro.datasets.__file__).parent.glob("*.py"))
    sources.append(Path(repro.utils.rng.__file__))
    return stable_hash({
        "sources": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sources},
        "numpy": _version("numpy"),
    })


def splits_key(dataset: str, sizes: Tuple[int, int, int], seed: int) -> str:
    """Store key (namespace ``datasets``) of one dataset's generated splits."""
    return stable_hash({"dataset": dataset, "sizes": [int(n) for n in sizes],
                        "seed": int(seed), "generator": generator_digest()})


class ExperimentContext:
    """One dataset + one profile: everything the experiments consume."""

    def __init__(self, dataset: str, profile: Optional[ExperimentProfile] = None,
                 cache: Optional[DiskCache] = None, seed: int = 0, *,
                 jobs: int = 1, retry_policy=None, fault_plan=None):
        if dataset not in ("digits", "objects"):
            raise KeyError(f"dataset must be 'digits' or 'objects', got {dataset!r}")
        self.dataset = dataset
        self.profile = profile or current_profile()
        self.cache = cache if cache is not None else default_cache()
        self.seed = int(seed)
        #: Worker processes the sweep helpers may fan attack cells out to
        #: (1 = serial).  An execution hint only: results are identical
        #: for any value.
        self.jobs = int(jobs)
        #: Fault-tolerance hints consumed by the sweep helpers, like
        #: ``jobs``: a :class:`~repro.runtime.faults.RetryPolicy`
        #: (None = the sweep default) and an optional
        #: :class:`~repro.runtime.faults.FaultPlan` for chaos runs.
        #: Neither affects *what* is computed — a faulted-but-completed
        #: sweep publishes bitwise-identical artifacts.
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        check_kernel(self.profile.nn_backend)   # fail fast on unknown names
        self._splits: Optional[DataSplits] = None
        self._zoo: Optional[ModelZoo] = None
        self._classifier: Optional[Module] = None
        self._clf_fingerprint: Optional[str] = None
        self._seeds: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._magnets: Dict[str, MagNet] = {}

    # ------------------------------------------------------------------
    # Data & models
    # ------------------------------------------------------------------
    @property
    def splits(self) -> DataSplits:
        """The train/val/test splits: loaded from the store, else generated
        and stored.  Loaded splits are bitwise equal to generated ones."""
        if self._splits is None:
            sizes = self.profile.sizes(self.dataset)
            key = splits_key(self.dataset, sizes, self.seed)
            try:
                self._splits = DataSplits.from_arrays(
                    self.cache.load("datasets", key))
            except KeyError:
                n_train, n_val, n_test = sizes
                loader = (load_digit_splits if self.dataset == "digits"
                          else load_object_splits)
                log.info("generating %s splits (%d/%d/%d)", self.dataset,
                         n_train, n_val, n_test)
                self._splits = loader(n_train=n_train, n_val=n_val,
                                      n_test=n_test, seed=self.seed)
                self.cache.save("datasets", key, self._splits.to_arrays(),
                                meta={"dataset": self.dataset,
                                      "sizes": list(sizes), "seed": self.seed})
        return self._splits

    @property
    def zoo(self) -> ModelZoo:
        if self._zoo is None:
            self._zoo = ModelZoo(self.splits, cache=self.cache,
                                 conv_kernel=self.profile.nn_backend)
        return self._zoo

    def classifier_spec(self) -> ClassifierSpec:
        return ClassifierSpec(dataset=self.dataset, seed=self.seed,
                              epochs=self.profile.classifier_epochs)

    @property
    def classifier(self) -> Module:
        """The (logit-scaled) classifier both attacker and defender see."""
        if self._classifier is None:
            base = self.zoo.classifier(self.classifier_spec())
            scale = self.profile.logit_scale(self.dataset)
            self._classifier = ScaledLogits(base, scale) if scale != 1.0 else base
        return self._classifier

    @property
    def classifier_fingerprint(self) -> str:
        if self._clf_fingerprint is None:
            base = self.zoo.classifier(self.classifier_spec())
            self._clf_fingerprint = stable_hash({
                "state": base.state_dict(),
                "scale": self.profile.logit_scale(self.dataset),
            })
        return self._clf_fingerprint

    def attack_seeds(self) -> Tuple[np.ndarray, np.ndarray]:
        """The correctly-classified test images the attacks start from."""
        if self._seeds is None:
            self._seeds = select_attack_seeds(
                self.classifier, self.splits.test,
                self.profile.n_attack(self.dataset), seed=self.seed + 101)
        return self._seeds

    # ------------------------------------------------------------------
    # Defenses
    # ------------------------------------------------------------------
    def magnet(self, variant: str = "default", ae_loss: str = "mse") -> MagNet:
        """Calibrated MagNet variant wrapping the scaled classifier (memoized)."""
        key = f"{variant}/{ae_loss}"
        if key not in self._magnets:
            self._magnets[key] = build_magnet(
                self.zoo, self.dataset, variant,
                classifier=self.classifier,
                wide_width=self.profile.wide_width,
                ae_loss=ae_loss,
                ae_epochs=self.profile.ae_epochs,
                wide_ae_epochs=self.profile.wide_ae_epochs,
                fpr_total=self.profile.fpr_total(self.dataset),
                seed=self.seed,
            )
        return self._magnets[key]

    # ------------------------------------------------------------------
    # Cached attacks (all against the undefended classifier)
    # ------------------------------------------------------------------
    def _attack_key(self, spec: Dict) -> str:
        key = {
            "clf": self.classifier_fingerprint,
            "n_attack": self.profile.n_attack(self.dataset),
            "seed": self.seed,
            "spec": spec,
        }
        # The fft kernel changes numerics (tolerance-equivalent, not
        # bitwise), so its attacks get their own cache entries.  numpy is
        # deliberately left out of the key, so existing stores stay valid.
        if self.profile.nn_backend != "numpy":
            key["nn_backend"] = self.profile.nn_backend
        return stable_hash(key)

    def _cached_attack(self, spec: Dict, name: str, run) -> AttackResult:
        key = self._attack_key(spec)
        with span(f"cell/{spec['attack']}", dataset=self.dataset,
                               batch=self.profile.n_attack(self.dataset)) as evt:
            try:
                result = _result_from_arrays(
                    self.cache.load("attacks", key), name)
                evt["cache"] = "hit"
                return result
            except KeyError:
                pass
            evt["cache"] = "miss"
            log.info("crafting %s on %s (%s profile)", name, self.dataset,
                     self.profile.name)
            result = run()
            self.cache.save("attacks", key, _result_to_arrays(result),
                            meta={"name": name, "spec": spec})
            return result

    def cw(self, kappa: float) -> AttackResult:
        """C&W-L2 at confidence κ (disk-cached)."""

        def run():
            x0, y0 = self.attack_seeds()
            attack = CarliniWagnerL2.from_profile(
                self.classifier, self.profile, kappa=kappa)
            return attack.attack(x0, y0)

        return self._cached_attack(self._cw_spec(kappa),
                                   f"cw_l2(kappa={kappa:g})", run)

    def _cw_spec(self, kappa: float) -> Dict:
        p = self.profile
        return {"attack": "cw_l2", "kappa": float(kappa),
                "iters": p.max_iterations, "bsearch": p.binary_search_steps,
                "c0": p.initial_const, "lr": p.cw_lr}

    def ead(self, beta: float, kappa: float) -> Dict[str, AttackResult]:
        """EAD at (β, κ); returns both decision rules from one cached run."""
        results = {}
        missing = []
        with span("cell/ead", dataset=self.dataset,
                               batch=self.profile.n_attack(self.dataset)) as evt:
            for rule in DECISION_RULES:
                spec = self._ead_spec(beta, kappa, rule)
                key = self._attack_key(spec)
                try:
                    arrays = self.cache.load("attacks", key)
                    results[rule] = _result_from_arrays(
                        arrays, f"ead_{rule}(beta={beta:g}, kappa={kappa:g})")
                except KeyError:
                    missing.append(rule)
            evt["cache"] = "miss" if missing else "hit"
            if missing:
                log.info("crafting EAD beta=%g kappa=%g on %s (%s profile)",
                         beta, kappa, self.dataset, self.profile.name)
                x0, y0 = self.attack_seeds()
                attack = EAD.from_profile(self.classifier, self.profile,
                                          beta=beta, kappa=kappa)
                both = attack.attack_both(x0, y0)
                for rule in DECISION_RULES:
                    spec = self._ead_spec(beta, kappa, rule)
                    self.cache.save("attacks", self._attack_key(spec),
                                    _result_to_arrays(both[rule]),
                                    meta={"name": both[rule].name, "spec": spec})
                    results[rule] = both[rule]
        return results

    def _ead_spec(self, beta: float, kappa: float, rule: str) -> Dict:
        p = self.profile
        return {"attack": "ead", "beta": float(beta), "kappa": float(kappa),
                "rule": rule, "iters": p.max_iterations,
                "bsearch": p.binary_search_steps, "c0": p.initial_const,
                "lr": p.ead_lr}

    def fgsm(self, epsilon: float = 0.1) -> AttackResult:
        """FGSM baseline (disk-cached)."""
        spec = {"attack": "fgsm", "eps": float(epsilon)}

        def run():
            x0, y0 = self.attack_seeds()
            return FGSM(self.classifier, epsilon=epsilon).attack(x0, y0)

        return self._cached_attack(spec, f"fgsm(eps={epsilon:g})", run)

    def ifgsm(self, epsilon: float = 0.1, steps: int = 10) -> AttackResult:
        """Iterative FGSM baseline (disk-cached)."""
        spec = {"attack": "ifgsm", "eps": float(epsilon), "steps": int(steps)}

        def run():
            x0, y0 = self.attack_seeds()
            return IterativeFGSM(self.classifier, epsilon=epsilon,
                                 steps=steps).attack(x0, y0)

        return self._cached_attack(spec, f"ifgsm(eps={epsilon:g})", run)

    def deepfool(self, max_iterations: int = 30) -> AttackResult:
        """DeepFool baseline (disk-cached)."""
        spec = {"attack": "deepfool", "iters": int(max_iterations)}

        def run():
            x0, y0 = self.attack_seeds()
            return DeepFool(self.classifier,
                            max_iterations=max_iterations).attack(x0, y0)

        return self._cached_attack(spec, "deepfool", run)


# ----------------------------------------------------------------------
# Serving integration: a picklable zoo-backed MagNet builder
# ----------------------------------------------------------------------
def build_served_magnet(dataset: str, variant: str = "default",
                        ae_loss: str = "mse", profile: str = "quick",
                        cache_dir: Optional[str] = None,
                        seed: int = 0) -> MagNet:
    """Build one calibrated zoo MagNet variant for a serving worker.

    Module-level and keyword-driven so a
    :class:`~repro.serving.router.ModelSpec` can carry it (or its
    catalog name ``"zoo-magnet"``) into spawn-started worker processes.
    With a warm cache directory this loads weights instead of training,
    so every worker reconstructs bitwise-identical models.
    """
    profile_obj = PROFILES[profile] if isinstance(profile, str) else profile
    cache = DiskCache(cache_dir) if cache_dir else None
    ctx = ExperimentContext(dataset, profile_obj, cache=cache, seed=seed)
    return ctx.magnet(variant, ae_loss=ae_loss)


register_model_builder("zoo-magnet", build_served_magnet)
