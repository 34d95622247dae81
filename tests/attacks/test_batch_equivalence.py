"""Equivalence suite for the masked batch engine.

The batched engine must agree with the per-example reference
(:mod:`tests.attacks.reference`: each lane attacked alone, results
stitched in order):

* **Tolerance-based** for batched-vs-per-example comparisons: a batch-1
  forward and a batch-N forward are *not* bitwise identical on this
  stack (BLAS picks different kernels per M dimension, ~1e-6 logit
  drift), so x_adv / distortions are compared under a documented
  tolerance while success masks must match exactly.
* **Bitwise** for subset runs: attacking rows ``x0[idx]`` as their own
  batch must reproduce the full-batch rows bit-for-bit — lanes are
  independent, and subset compaction is exactly what the engine does
  internally once lanes freeze.

The batched engine must also amortise model dispatches: the per-example
reference issues about ``batch`` times as many ``attack/dispatches``
as one batched call (``DISPATCH_RATIO_FLOOR`` x batch; early abort trims
lanes asymmetrically, so the ratio can dip a little under batch).  The
count is host-independent, unlike a wall-clock speedup, which also
depends on how many cores BLAS gets for the wide GEMMs.

Plus property tests that frozen lanes are bit-stable once their mask
clears (``MaskedLanes`` unit level and engine level via early abort).
"""

import numpy as np
import pytest

from repro.attacks import (
    CarliniWagnerL2,
    EAD,
    DECISION_RULES,
    MaskedLanes,
    logits_of,
)
from repro.obs import counter
from tests.attacks.reference import lanewise_attack, lanewise_attack_both

# Documented engine tolerance: per-example runs use batch-1 model
# dispatches whose BLAS kernels differ from the batched ones; the drift
# compounds over ~150 optimize iterations but stays tiny.
ATOL_X = 1e-4
ATOL_NORM = 1e-3

SMOKE = dict(binary_search_steps=3, max_iterations=50, initial_const=1.0)

#: Per-example / batched dispatch ratio floor, as a fraction of the batch.
DISPATCH_RATIO_FLOOR = 0.75


@pytest.fixture(scope="module")
def seeds(tiny_classifier, tiny_splits):
    preds = logits_of(tiny_classifier, tiny_splits.test.x).argmax(1)
    idx = np.flatnonzero(preds == tiny_splits.test.y)[:8]
    return tiny_splits.test.x[idx], tiny_splits.test.y[idx]


def _dispatches(run, *args):
    """``run(*args)`` and the ``attack/dispatches`` it issued."""
    dispatches = counter("attack/dispatches")
    before = dispatches.value
    result = run(*args)
    return result, dispatches.value - before


def _assert_amortised(batched_dispatches, lanewise_dispatches, batch):
    assert batched_dispatches > 0
    ratio = lanewise_dispatches / batched_dispatches
    assert ratio >= DISPATCH_RATIO_FLOOR * batch, (
        f"per-example/batched dispatch ratio {ratio:.1f} below "
        f"{DISPATCH_RATIO_FLOOR} x batch ({batch}): the masked engine is "
        "not amortising model dispatches")


def _assert_equivalent(batched, lanewise):
    np.testing.assert_array_equal(batched.success, lanewise.success)
    np.testing.assert_allclose(batched.x_adv, lanewise.x_adv, atol=ATOL_X)
    for order in ("l1", "l2", "linf"):
        np.testing.assert_allclose(getattr(batched, order),
                                   getattr(lanewise, order), atol=ATOL_NORM)
    ok = batched.success
    if ok.any():
        np.testing.assert_allclose(batched.const[ok], lanewise.const[ok],
                                   rtol=1e-6)


class TestCWEquivalence:
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_batched_matches_per_example(self, tiny_classifier, seeds, kappa):
        x0, y0 = seeds
        attack = CarliniWagnerL2(tiny_classifier, kappa=kappa, lr=5e-2,
                                 **SMOKE)
        batched, wide = _dispatches(attack.attack, x0, y0)
        lanewise, per_lane = _dispatches(lanewise_attack, attack, x0, y0)
        _assert_equivalent(batched, lanewise)
        _assert_amortised(wide, per_lane, len(x0))

    def test_subset_is_bitwise(self, tiny_classifier, seeds):
        """Lane independence: a subset batch reproduces full-batch rows
        bit-for-bit (the same compaction the engine performs internally)."""
        x0, y0 = seeds
        attack = CarliniWagnerL2(tiny_classifier, kappa=0.0, lr=5e-2, **SMOKE)
        full = attack.attack(x0, y0)
        idx = np.array([1, 3, 4, 6])
        part = attack.attack(x0[idx], y0[idx])
        np.testing.assert_array_equal(part.x_adv, full.x_adv[idx])
        np.testing.assert_array_equal(part.success, full.success[idx])
        np.testing.assert_array_equal(part.iterations, full.iterations[idx])

    def test_deterministic_across_runs(self, tiny_classifier, seeds):
        x0, y0 = seeds
        params = dict(kappa=0.0, lr=5e-2, **SMOKE)
        a = CarliniWagnerL2(tiny_classifier, **params).attack(x0[:4], y0[:4])
        b = CarliniWagnerL2(tiny_classifier, **params).attack(x0[:4], y0[:4])
        np.testing.assert_array_equal(a.x_adv, b.x_adv)
        np.testing.assert_array_equal(a.iterations, b.iterations)


class TestEADEquivalence:
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_both_rules_match_per_example(self, tiny_classifier, seeds, kappa):
        x0, y0 = seeds
        attack = EAD(tiny_classifier, beta=1e-1, kappa=kappa, lr=1e-2,
                     **SMOKE)
        batched, wide = _dispatches(attack.attack_both, x0, y0)
        lanewise, per_lane = _dispatches(lanewise_attack_both, attack, x0, y0)
        for rule in DECISION_RULES:
            _assert_equivalent(batched[rule], lanewise[rule])
        _assert_amortised(wide, per_lane, len(x0))

    def test_subset_is_bitwise(self, tiny_classifier, seeds):
        x0, y0 = seeds
        attack = EAD(tiny_classifier, beta=1e-1, kappa=0.0, lr=1e-2, **SMOKE)
        full = attack.attack_both(x0, y0)
        idx = np.array([0, 2, 5, 7])
        part = attack.attack_both(x0[idx], y0[idx])
        for rule in DECISION_RULES:
            np.testing.assert_array_equal(part[rule].x_adv,
                                          full[rule].x_adv[idx])
            np.testing.assert_array_equal(part[rule].success,
                                          full[rule].success[idx])

    def test_abort_early_subset_bitwise(self, tiny_classifier, seeds):
        """Frozen lanes stay bit-stable under compaction: with per-lane
        early abort on, the full-batch rows still match a subset run."""
        x0, y0 = seeds
        attack = EAD(tiny_classifier, beta=1e-1, kappa=0.0, lr=1e-2,
                     abort_early=True, **SMOKE)
        full = attack.attack_both(x0, y0)
        idx = np.array([1, 2, 4, 6])
        part = attack.attack_both(x0[idx], y0[idx])
        for rule in DECISION_RULES:
            np.testing.assert_array_equal(part[rule].x_adv,
                                          full[rule].x_adv[idx])
        np.testing.assert_array_equal(part["en"].iterations,
                                      full["en"].iterations[idx])

    def test_abort_early_cuts_lane_iterations(self, tiny_classifier, seeds):
        x0, y0 = seeds
        budget = SMOKE["binary_search_steps"] * SMOKE["max_iterations"]
        eager = EAD(tiny_classifier, beta=1e-1, kappa=0.0, lr=1e-2,
                    abort_early=True, **SMOKE).attack(x0, y0)
        assert eager.iterations.max() <= budget
        assert eager.converged.any()
        # A lane that froze in the final optimize run spent less than its
        # full budget; frozen lanes stopped counting the moment they froze.
        assert (eager.iterations[eager.converged] < budget).all()


class TestMaskedLanesProperties:
    def test_all_active_fast_path(self):
        lanes = MaskedLanes(4)
        assert lanes.sub == slice(None)
        assert lanes.count == 4 and lanes.any_active()
        np.testing.assert_array_equal(lanes.indices(), np.arange(4))

    def test_freeze_is_one_way_and_bit_stable(self):
        lanes = MaskedLanes(5)
        state = np.arange(5, dtype=np.float64)
        lanes.tick()
        lanes.freeze(np.array([1, 3]))
        frozen_snapshot = state[[1, 3]].copy()
        # Post-freeze loop body: every write goes through ``sub``.
        for _ in range(3):
            sub = lanes.sub
            state[sub] += 1.0
            lanes.tick()
        np.testing.assert_array_equal(state[[1, 3]], frozen_snapshot)
        np.testing.assert_array_equal(lanes.iterations,
                                      np.array([4, 1, 4, 1, 4]))
        np.testing.assert_array_equal(lanes.indices(), np.array([0, 2, 4]))

    def test_tick_counts_only_active_lanes(self):
        lanes = MaskedLanes(3)
        lanes.tick(dispatches=2)
        lanes.freeze(np.array([0]))
        lanes.tick(dispatches=2)
        np.testing.assert_array_equal(lanes.iterations, np.array([1, 2, 2]))
        assert lanes.dispatches == 4

    def test_freeze_where_maps_active_order(self):
        lanes = MaskedLanes(5)
        lanes.freeze(np.array([1]))          # active: [0, 2, 3, 4]
        lanes.freeze_where(np.array([False, True, False, True]))
        np.testing.assert_array_equal(lanes.indices(), np.array([0, 3]))

    def test_freeze_where_all_active(self):
        lanes = MaskedLanes(3)
        lanes.freeze_where(np.array([True, False, True]))
        np.testing.assert_array_equal(lanes.indices(), np.array([1]))
        lanes.freeze_where(np.array([True]))
        assert not lanes.any_active()
