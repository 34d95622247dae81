#!/usr/bin/env python
"""Scenario: a one-page robustness report for a deployed model.

Pulls the library's evaluation tooling together the way a practitioner
would before shipping a model behind MagNet:

1. clean accuracy, with and without the defense;
2. benign corruption robustness (noise/blur severity sweeps) — does the
   detector reject legitimate-but-shifted inputs?
3. adversarial robustness at a fixed confidence: FGSM, I-FGSM, C&W, EAD;
4. per-class weak points and the most common adversarial confusions;
5. detector ROC/AUC against the strongest attack found.

Run:  python examples/robustness_report.py
"""

import numpy as np

from repro.attacks import (
    EAD,
    FGSM,
    CarliniWagnerL2,
    IterativeFGSM,
    logits_of,
)
from repro.datasets import load_digit_splits, robustness_curve
from repro.defenses import build_magnet
from repro.evaluation import (
    confusion_pairs,
    detector_roc_report,
    format_table,
    per_class_breakdown,
)
from repro.models import ClassifierSpec, ModelZoo
from repro.models.classifiers import ScaledLogits
from repro.nn import accuracy


def main():
    splits = load_digit_splits(n_train=1500, n_val=400, n_test=600, seed=0)
    zoo = ModelZoo(splits)
    base = zoo.classifier(ClassifierSpec(dataset="digits", epochs=5))
    model = ScaledLogits(base, 5.0)
    magnet = build_magnet(zoo, "digits", "default", classifier=model,
                          fpr_total=0.002)

    print("=== 1. clean performance ===")
    print(f"raw accuracy          : "
          f"{accuracy(model, splits.test.x, splits.test.y):.3f}")
    print(f"behind MagNet         : "
          f"{magnet.clean_accuracy(splits.test.x, splits.test.y):.3f}")

    print("\n=== 2. benign corruption robustness ===")
    rows = []
    for corruption in ("gaussian_noise", "gaussian_blur", "contrast"):
        curve = robustness_curve(model, splits.test.x[:300],
                                 splits.test.y[:300], corruption,
                                 severities=(1, 3, 5))
        rows.append([corruption] + [100 * curve[s] for s in (1, 3, 5)])
    print(format_table(["corruption", "sev 1 %", "sev 3 %", "sev 5 %"],
                       rows, title="raw classifier accuracy under corruption"))

    print("\n=== 3. adversarial robustness (oblivious, 24 seeds) ===")
    preds = logits_of(model, splits.test.x).argmax(1)
    idx = np.flatnonzero(preds == splits.test.y)[:24]
    x0, y0 = splits.test.x[idx], splits.test.y[idx]
    attacks = {
        "FGSM eps=0.1": FGSM(model, epsilon=0.1),
        "I-FGSM eps=0.1": IterativeFGSM(model, epsilon=0.1, step_size=0.02,
                                        steps=15),
        "C&W kappa=10": CarliniWagnerL2(model, kappa=10.0,
                                        binary_search_steps=4,
                                        max_iterations=120,
                                        initial_const=1.0, lr=5e-2),
        "EAD kappa=10": EAD(model, beta=1e-1, kappa=10.0,
                            binary_search_steps=4, max_iterations=120,
                            initial_const=1.0, lr=2e-2),
    }
    rows, results = [], {}
    for name, attack in attacks.items():
        result = attack.attack(x0, y0)
        results[name] = result
        rows.append([name, 100 * result.success_rate,
                     result.mean_distortion("l1"),
                     100 * magnet.attack_success_rate(result.x_adv, y0)])
    print(format_table(
        ["attack", "fools raw model %", "L1", "ASR vs MagNet %"], rows))

    strongest = max(results.items(),
                    key=lambda kv: magnet.attack_success_rate(kv[1].x_adv, y0))
    name, result = strongest

    print(f"\n=== 4. weak points under {name} ===")
    rows = [bd.as_row() for bd in per_class_breakdown(result, magnet=magnet)]
    print(format_table(
        ["class", "n", "fooled raw %", "bypass MagNet %", "mean L1"], rows))
    pairs = confusion_pairs(result, top_k=3)
    if pairs:
        print("top confusions: " + ", ".join(
            f"{p['true']}→{p['adversarial']} ({p['count']})" for p in pairs))

    print(f"\n=== 5. detector separability vs {name} ===")
    rows = []
    for det in magnet.detectors:
        rep = detector_roc_report(det, splits.val.x, result.x_adv)
        rows.append([rep["detector"], rep["auc"],
                     rep["tpr_at_fpr"]["0.01"]])
    print(format_table(["detector", "AUC", "TPR@FPR=1%"], rows))


if __name__ == "__main__":
    main()
