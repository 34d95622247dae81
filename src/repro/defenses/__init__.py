"""MagNet defense: detectors, reformer, pipeline and paper variants."""

from repro.defenses.adversarial_training import (
    AdversarialTrainer,
    adversarially_train_classifier,
)
from repro.defenses.detectors import (
    Detector,
    JSDDetector,
    ReconstructionDetector,
    jensen_shannon_divergence,
)
from repro.defenses.magnet import MagNet, MagNetDecision
from repro.defenses.reformer import Reformer
from repro.defenses.variants import (
    CIFAR_VARIANTS,
    JSD_TEMPERATURES,
    MNIST_VARIANTS,
    VARIANT_LABELS,
    build_magnet,
)

__all__ = [
    "AdversarialTrainer",
    "CIFAR_VARIANTS",
    "Detector",
    "JSDDetector",
    "JSD_TEMPERATURES",
    "MNIST_VARIANTS",
    "MagNet",
    "MagNetDecision",
    "ReconstructionDetector",
    "Reformer",
    "VARIANT_LABELS",
    "adversarially_train_classifier",
    "build_magnet",
    "jensen_shannon_divergence",
]
