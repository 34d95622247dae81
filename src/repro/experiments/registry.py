"""Experiment registry: run any table/figure by id.

``run_experiment("fig2")`` resolves the experiment, builds (or reuses)
the contexts it needs, and returns its :class:`ExperimentReport`.
Contexts are memoized per (profile, seed) within the process so a
benchmark session shares data, models and attack caches across all 20
experiments.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.experiments import figures, tables
from repro.experiments.config import ExperimentProfile, current_profile
from repro.experiments.context import ExperimentContext
from repro.experiments.report import ExperimentReport
from repro.obs import span
from repro.utils.cache import DiskCache

# exp id -> (function, datasets it needs, short description)
_SPEC: Dict[str, Tuple[Callable, Tuple[str, ...], str]] = {
    "table1": (tables.table1, ("digits", "objects"),
               "attack comparison vs default MagNet"),
    "table2": (tables.table2, ("digits",), "robust MNIST AE architectures"),
    "table3": (tables.table3, ("digits",), "digits clean accuracy"),
    "table4": (tables.table4, ("digits",), "best EAD ASR per variant (digits)"),
    "table5": (tables.table5, ("objects",), "robust CIFAR AE architecture"),
    "table6": (tables.table6, ("objects",), "objects clean accuracy"),
    "table7": (tables.table7, ("objects",), "best EAD ASR per variant (objects)"),
    "fig1": (figures.fig1, ("digits",), "adversarial example gallery"),
    "fig2": (figures.fig2, ("digits",), "variant comparison curves (digits)"),
    "fig3": (figures.fig3, ("objects",), "variant comparison curves (objects)"),
    "fig4": (figures.fig4, ("digits",), "C&W decomposition (digits)"),
    "fig5": (figures.fig5, ("objects",), "C&W decomposition (objects)"),
    "fig6": (figures.fig6, ("digits",), "EAD decomposition, default (digits)"),
    "fig7": (figures.fig7, ("objects",), "EAD decomposition, default (objects)"),
    "fig8": (figures.fig8, ("digits",), "EAD decomposition, D+JSD (digits)"),
    "fig9": (figures.fig9, ("digits",), "EAD decomposition, D+wide (digits)"),
    "fig10": (figures.fig10, ("digits",), "EAD decomposition, D+wide+JSD (digits)"),
    "fig11": (figures.fig11, ("objects",), "EAD decomposition, D+wide (objects)"),
    "fig12": (figures.fig12, ("digits",), "AE loss ablation (digits)"),
    "fig13": (figures.fig13, ("objects",), "AE loss ablation (objects)"),
}

EXPERIMENT_IDS = tuple(_SPEC)

_contexts: Dict[Tuple[str, ExperimentProfile, int], ExperimentContext] = {}


def get_context(dataset: str, profile: Optional[ExperimentProfile] = None,
                cache: Optional[DiskCache] = None,
                seed: int = 0, *, jobs: int = 1,
                retry_policy=None, fault_plan=None) -> ExperimentContext:
    """Memoized ExperimentContext for (dataset, profile, seed).

    ``jobs``, ``retry_policy`` and ``fault_plan`` are execution hints,
    not part of the memo key: passing different values updates the
    existing context's fan-out/fault-tolerance behavior without
    invalidating its cached data/models (results are identical for any
    setting — see :mod:`repro.runtime`).
    """
    profile = profile or current_profile()
    # The whole profile, not just its name: two profiles that share a
    # name but differ in a field (say nn_backend) need their own context.
    key = (dataset, profile, seed)
    if key not in _contexts:
        _contexts[key] = ExperimentContext(dataset, profile=profile,
                                           cache=cache, seed=seed, jobs=jobs,
                                           retry_policy=retry_policy,
                                           fault_plan=fault_plan)
    else:
        _contexts[key].jobs = int(jobs)
        _contexts[key].retry_policy = retry_policy
        _contexts[key].fault_plan = fault_plan
    return _contexts[key]


def describe_experiments() -> Dict[str, str]:
    """Map of experiment id → one-line description."""
    return {exp_id: spec[2] for exp_id, spec in _SPEC.items()}


def run_experiment(exp_id: str, profile: Optional[ExperimentProfile] = None,
                   cache: Optional[DiskCache] = None,
                   seed: int = 0, *, jobs: int = 1, resume: bool = False,
                   retry_policy=None, fault_plan=None) -> ExperimentReport:
    """Run one table/figure reproduction and return its report.

    ``jobs`` (keyword-only) sets the parallel fan-out: with ``jobs > 1``
    the profile's full attack grid of every dataset the experiment needs
    is precomputed in one map, by one pool of that many worker processes
    (at most one per missing cell), before the (serial, cache-hitting)
    experiment body runs.  ``0`` means one worker per core.  Results are
    bitwise-identical for any value.

    ``resume=True`` continues an interrupted sweep from its checkpoint
    manifest, recomputing only missing/corrupt/previously-failed cells.
    ``retry_policy`` overrides the sweep's fault-tolerance defaults and
    ``fault_plan`` injects deterministic chaos (``--inject-faults``; its
    item indices count the missing cells across the experiment's
    datasets in grid order); setting either precomputes the grid through
    the supervised sweep even at ``jobs=1``; see :mod:`repro.runtime`.
    """
    if exp_id not in _SPEC:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(_SPEC)}")
    fn, datasets, _desc = _SPEC[exp_id]
    contexts = [get_context(ds, profile=profile, cache=cache, seed=seed,
                            jobs=jobs, retry_policy=retry_policy,
                            fault_plan=fault_plan)
                for ds in datasets]
    with span(f"experiment/{exp_id}", jobs=jobs):
        # The sweep is the only place a retry policy or fault plan takes
        # effect; the table bodies craft attacks unsupervised.
        if ((jobs is not None and jobs != 1) or resume
                or retry_policy is not None or fault_plan is not None):
            from repro.experiments.sweeps import precompute_attacks

            precompute_attacks(*contexts, jobs=jobs, resume=resume)
        return fn(*contexts)


def clear_contexts() -> None:
    """Drop memoized contexts (tests use this to switch profiles)."""
    _contexts.clear()
