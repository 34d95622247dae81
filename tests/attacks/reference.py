"""The per-example reference the batched attack engine is checked against.

Each lane runs alone, as a batch of one, through the attack's public
entry point, and the per-lane results are stitched back in order with
:func:`repro.attacks.concat_results`.  Lanes are independent, so this
matches the wide engine up to BLAS reduction order (a batch-1 forward
and a batch-N forward pick different kernels).
"""

from repro.attacks import DECISION_RULES, concat_results


def lanewise_attack(attack, x0, labels):
    """``attack.attack(x0, labels)``, one lane at a time."""
    return concat_results([attack.attack(x0[i:i + 1], labels[i:i + 1])
                           for i in range(len(x0))])


def lanewise_attack_both(attack, x0, labels):
    """``attack.attack_both(x0, labels)`` (EAD), one lane at a time."""
    parts = [attack.attack_both(x0[i:i + 1], labels[i:i + 1])
             for i in range(len(x0))]
    return {rule: concat_results([part[rule] for part in parts])
            for rule in DECISION_RULES}
