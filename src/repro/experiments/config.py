"""Experiment profiles: the scale knobs for every table/figure run.

Three profiles:

* ``smoke`` — seconds-scale; used by the integration tests.
* ``quick`` — minutes-scale; the default for the benchmark harness.
  Reproduces the paper's *shapes* (who wins, where the dips fall) at
  reduced sample counts / iteration budgets / κ-grid resolution.
* ``paper`` — the paper's settings (1000 attack seeds, 1000 iterations,
  9 binary-search steps, κ-grid step 5, 256-wide robust autoencoders).
  Hours-scale on pure numpy; provided for full-fidelity runs.

Select with the ``REPRO_PROFILE`` environment variable.

``logit_scale`` calibrates the substitute classifiers' confidence scale
so the paper's κ axes ([0, 40] MNIST, [0, 100] CIFAR-10) correspond to
comparable input-space distortions (see DESIGN.md §2 and
``repro.models.classifiers.ScaledLogits``).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Tuple

#: EAD L1-regularization strengths evaluated throughout the paper.
PAPER_BETAS: Tuple[float, ...] = (1e-3, 1e-2, 5e-2, 1e-1)


@dataclasses.dataclass(frozen=True)
class ExperimentProfile:
    """All scale parameters for one reproduction run."""

    name: str
    # dataset sizes (train, val, test)
    digits_sizes: Tuple[int, int, int]
    objects_sizes: Tuple[int, int, int]
    # attack seed counts (paper: 1000 correctly classified test images)
    digits_attack: int
    objects_attack: int
    # attack optimization budget
    max_iterations: int
    binary_search_steps: int
    initial_const: float
    cw_lr: float
    ead_lr: float
    # confidence grids
    digits_kappas: Tuple[float, ...]
    objects_kappas: Tuple[float, ...]
    # EAD betas
    betas: Tuple[float, ...]
    # MagNet knobs
    wide_width: int              # stands in for the paper's 256
    ae_epochs: int
    wide_ae_epochs: int          # wide AEs converge faster; fewer epochs
    fpr_total_digits: float
    fpr_total_objects: float
    # classifier training + calibration
    classifier_epochs: int
    logit_scale_digits: float
    logit_scale_objects: float
    # conv kernel (repro.nn.backend.KERNELS) every model of this profile
    # is built with: the zoo sets it on each Conv2D it trains or loads.
    # The paper profile's 256-filter autoencoders are conv-bound at a
    # filter width where fft wins; the smaller profiles keep the
    # bitwise-stable numpy reference.
    nn_backend: str = "numpy"

    def sizes(self, dataset: str) -> Tuple[int, int, int]:
        return self.digits_sizes if dataset == "digits" else self.objects_sizes

    def n_attack(self, dataset: str) -> int:
        return self.digits_attack if dataset == "digits" else self.objects_attack

    def kappas(self, dataset: str) -> Tuple[float, ...]:
        return self.digits_kappas if dataset == "digits" else self.objects_kappas

    def fpr_total(self, dataset: str) -> float:
        return self.fpr_total_digits if dataset == "digits" else self.fpr_total_objects

    def logit_scale(self, dataset: str) -> float:
        return (self.logit_scale_digits if dataset == "digits"
                else self.logit_scale_objects)

    def config(self) -> Dict:
        return dataclasses.asdict(self)


SMOKE = ExperimentProfile(
    name="smoke",
    digits_sizes=(800, 200, 400),
    objects_sizes=(800, 200, 400),
    digits_attack=10,
    objects_attack=10,
    max_iterations=50,
    binary_search_steps=3,
    initial_const=1.0,
    cw_lr=5e-2,
    ead_lr=1e-2,
    digits_kappas=(0.0, 20.0),
    objects_kappas=(0.0, 50.0),
    betas=(1e-2, 1e-1),
    wide_width=8,
    ae_epochs=30,
    wide_ae_epochs=15,
    fpr_total_digits=0.002,
    fpr_total_objects=0.01,
    classifier_epochs=5,
    logit_scale_digits=6.0,
    logit_scale_objects=8.0,
)

QUICK = ExperimentProfile(
    name="quick",
    digits_sizes=(2000, 500, 1000),
    objects_sizes=(1800, 450, 800),
    digits_attack=32,
    objects_attack=16,
    max_iterations=150,
    binary_search_steps=4,
    initial_const=1.0,
    cw_lr=5e-2,
    ead_lr=2e-2,
    digits_kappas=(0.0, 10.0, 20.0, 30.0, 40.0),
    objects_kappas=(0.0, 30.0, 60.0, 100.0),
    betas=PAPER_BETAS,
    wide_width=16,
    ae_epochs=40,
    wide_ae_epochs=18,
    fpr_total_digits=0.002,
    fpr_total_objects=0.002,
    classifier_epochs=5,
    logit_scale_digits=5.0,
    logit_scale_objects=8.0,
)

PAPER = ExperimentProfile(
    name="paper",
    digits_sizes=(20000, 2000, 5000),
    objects_sizes=(16000, 2000, 4000),
    digits_attack=1000,
    objects_attack=1000,
    max_iterations=1000,
    binary_search_steps=9,
    initial_const=1e-3,
    cw_lr=1e-2,
    ead_lr=1e-2,
    digits_kappas=tuple(float(k) for k in range(0, 45, 5)),
    objects_kappas=tuple(float(k) for k in range(0, 105, 5)),
    betas=PAPER_BETAS,
    wide_width=256,
    ae_epochs=100,
    wide_ae_epochs=100,
    fpr_total_digits=0.001,
    fpr_total_objects=0.005,
    classifier_epochs=12,
    logit_scale_digits=5.0,
    logit_scale_objects=8.0,
    nn_backend="fft",
)

PROFILES = {p.name: p for p in (SMOKE, QUICK, PAPER)}


def current_profile() -> ExperimentProfile:
    """Resolve the active profile from $REPRO_PROFILE (default quick)."""
    name = os.environ.get("REPRO_PROFILE", "quick").lower()
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown REPRO_PROFILE={name!r}; available: {sorted(PROFILES)}"
        ) from None
