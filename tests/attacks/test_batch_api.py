"""Contract tests for the batch-first attack API.

Every attack takes ``attack(x0, labels)`` batch-in/batch-out with
keyword-only constructor knobs; the base class owns the ``N=0`` fast
path (no model calls), and the optimization attacks expose per-lane
diagnostics wired into the ``attack/iterations`` metric.
"""

import numpy as np
import pytest

from repro.attacks import (
    Attack,
    AttackResult,
    CarliniWagnerL2,
    DeepFool,
    EAD,
    FGSM,
    IterativeFGSM,
    concat_results,
    flat_norms,
)
from repro.obs import counter
from tests.attacks.reference import lanewise_attack


class _ExplodingModel:
    """Stands in for a Module; any forward access means the fast path leaked."""

    def __getattr__(self, name):
        raise AssertionError(f"model touched via .{name} on the N=0 path")


def _empty_batch():
    return (np.zeros((0, 1, 28, 28), dtype=np.float32),
            np.zeros(0, dtype=np.int64))


ATTACK_FACTORIES = [
    pytest.param(lambda m: FGSM(m, epsilon=0.1), id="fgsm"),
    pytest.param(lambda m: IterativeFGSM(m, epsilon=0.1, steps=3), id="ifgsm"),
    pytest.param(lambda m: DeepFool(m, max_iterations=5), id="deepfool"),
    pytest.param(lambda m: EAD(m, max_iterations=5), id="ead"),
    pytest.param(lambda m: CarliniWagnerL2(m, max_iterations=5), id="cw"),
]


class TestEmptyBatchFastPath:
    @pytest.mark.parametrize("factory", ATTACK_FACTORIES)
    def test_returns_empty_result_without_model_calls(self, factory):
        attack = factory(_ExplodingModel())
        result = attack.attack(*_empty_batch())
        assert len(result) == 0
        assert result.x_adv.shape == (0, 1, 28, 28)
        assert result.success.dtype == bool
        assert result.success_rate == 0.0
        assert np.isnan(result.mean_distortion("l1"))

    def test_attack_both_empty(self):
        results = EAD(_ExplodingModel()).attack_both(*_empty_batch())
        assert set(results) == {"en", "l1"}
        for result in results.values():
            assert len(result) == 0
            assert result.iterations.shape == (0,)

    def test_empty_still_validates(self):
        attack = FGSM(_ExplodingModel(), epsilon=0.1)
        with pytest.raises(ValueError):
            attack.attack(np.zeros((0, 28, 28)), np.zeros(0, dtype=np.int64))


class TestSingleExampleFastPath:
    def test_per_example_mode_short_circuits_at_n1(self, tiny_classifier,
                                                   tiny_splits):
        """At N=1 the per-example reference is one batched call — bitwise
        equal to the wide engine."""
        x0 = tiny_splits.test.x[:1]
        y0 = tiny_splits.test.y[:1]
        attack = CarliniWagnerL2(tiny_classifier, kappa=0.0,
                                 binary_search_steps=2, max_iterations=20,
                                 initial_const=1.0, lr=5e-2)
        batched = attack.attack(x0, y0)
        lanewise = lanewise_attack(attack, x0, y0)
        np.testing.assert_array_equal(batched.x_adv, lanewise.x_adv)
        np.testing.assert_array_equal(batched.iterations, lanewise.iterations)


class TestBatchModeKnob:
    """One engine: the optimization attacks take no ``batch_mode``."""

    @pytest.mark.parametrize("cls", [EAD, CarliniWagnerL2])
    def test_constructors_validate(self, cls):
        with pytest.raises(TypeError, match="batch_mode"):
            cls(_ExplodingModel(), batch_mode="batched")

    @pytest.mark.parametrize("factory", ATTACK_FACTORIES)
    def test_knobs_are_keyword_only(self, factory):
        attack = factory(_ExplodingModel())
        with pytest.raises(TypeError):
            type(attack)(_ExplodingModel(), 0.1)


class TestDiagnostics:
    @pytest.fixture(scope="class")
    def cw_result(self, tiny_classifier, tiny_splits):
        x0 = tiny_splits.test.x[:4]
        y0 = tiny_splits.test.y[:4]
        attack = CarliniWagnerL2(tiny_classifier, kappa=0.0,
                                 binary_search_steps=2, max_iterations=25,
                                 initial_const=1.0, lr=5e-2)
        before = counter("attack/iterations").value
        result = attack.attack(x0, y0)
        return result, counter("attack/iterations").value - before

    def test_per_lane_fields(self, cw_result):
        result, _ = cw_result
        assert result.iterations.shape == (4,)
        assert result.iterations.dtype == np.int64
        assert result.converged.dtype == bool
        assert (result.iterations >= 1).all()
        assert (result.iterations <= 2 * 25).all()
        assert result.final_const.shape == (4,)
        assert (result.final_const > 0).all()

    def test_iterations_metric_counts_lane_iterations(self, cw_result):
        result, delta = cw_result
        assert delta == int(result.iterations.sum())

    def test_best_const_vs_final_const(self, cw_result):
        result, _ = cw_result
        # const records the c of the best example (NaN on failure);
        # final_const is the bracket after the last bsearch update.
        assert np.isfinite(result.const[result.success]).all()
        assert np.isnan(result.const[~result.success]).all()
        assert np.isfinite(result.final_const).all()

    def test_ead_diagnostics_shared_across_rules(self, tiny_classifier,
                                                 tiny_splits):
        x0 = tiny_splits.test.x[:3]
        y0 = tiny_splits.test.y[:3]
        results = EAD(tiny_classifier, beta=1e-1, kappa=0.0,
                      binary_search_steps=2, max_iterations=25,
                      initial_const=1.0).attack_both(x0, y0)
        np.testing.assert_array_equal(results["en"].iterations,
                                      results["l1"].iterations)
        np.testing.assert_array_equal(results["en"].final_const,
                                      results["l1"].final_const)


def _toy_result(n, name="toy", with_diag=True):
    x = np.random.default_rng(n).random((n, 1, 4, 4)).astype(np.float32)
    norms = flat_norms(x)
    return AttackResult(
        x_adv=x, success=np.ones(n, dtype=bool),
        y_true=np.zeros(n, dtype=np.int64), y_adv=np.ones(n, dtype=np.int64),
        const=np.ones(n), name=name,
        iterations=np.full(n, 7, dtype=np.int64) if with_diag else None,
        converged=np.ones(n, dtype=bool) if with_diag else None,
        final_const=np.ones(n) if with_diag else None,
        **norms)


class TestConcatResults:
    def test_stitches_in_order(self):
        merged = concat_results([_toy_result(2), _toy_result(3)], name="m")
        assert len(merged) == 5
        assert merged.name == "m"
        assert merged.iterations.shape == (5,)
        np.testing.assert_array_equal(
            merged.x_adv, np.concatenate([_toy_result(2).x_adv,
                                          _toy_result(3).x_adv]))

    def test_optional_fields_need_every_part(self):
        merged = concat_results([_toy_result(2),
                                 _toy_result(3, with_diag=False)])
        assert merged.iterations is None
        assert merged.converged is None
        assert merged.const is not None  # present on both parts

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            concat_results([])

    def test_defaults_to_first_name(self):
        merged = concat_results([_toy_result(1, name="a"),
                                 _toy_result(1, name="b")])
        assert merged.name == "a"


class TestBaseValidation:
    def test_subclasses_must_implement_run(self):
        class Hollow(Attack):
            pass

        with pytest.raises(NotImplementedError):
            Hollow(_ExplodingModel()).attack(
                np.zeros((1, 1, 28, 28), dtype=np.float32),
                np.zeros(1, dtype=np.int64))

    def test_box_and_shape_validation(self):
        attack = FGSM(_ExplodingModel(), epsilon=0.1)
        x = np.zeros((2, 1, 28, 28), dtype=np.float32)
        with pytest.raises(ValueError, match="labels shape"):
            attack.attack(x, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="\\[0,1\\]"):
            attack.attack(x + 2.0, np.zeros(2, dtype=np.int64))
