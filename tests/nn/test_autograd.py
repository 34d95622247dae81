"""Unit tests for the reverse-mode autodiff engine."""

import threading

import numpy as np
import pytest

from repro.attacks import detector_aware_attack
from repro.attacks.gradients import margin_loss_and_grad
from repro.defenses import JSDDetector, MagNet, ReconstructionDetector, Reformer
from repro.models.autoencoders import build_autoencoder
from repro.models.classifiers import ScaledLogits, build_digit_classifier
from repro.nn import autograd as ag
from repro.nn.autograd import Tensor, no_grad, unbroadcast
from repro.nn.backend import KERNELS

from tests.nn.gradcheck import check_gradient


class TestTensorBasics:
    def test_wraps_ndarray(self):
        t = Tensor(np.ones((2, 3)))
        assert t.shape == (2, 3)
        # float64 input stays float64 (gradcheck relies on this).
        assert t.dtype == np.float64
        assert Tensor(np.ones(2, dtype=np.float32)).dtype == np.float32

    def test_int_data_promoted_to_float(self):
        t = Tensor(np.arange(4))
        assert t.dtype == np.float32

    def test_explicit_dtype_respected(self):
        t = Tensor(np.ones(3), dtype=np.float64)
        assert t.dtype == np.float64

    def test_wrapping_tensor_raises(self):
        with pytest.raises(TypeError):
            Tensor(Tensor(np.ones(2)))

    def test_item_on_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    def test_detach_shares_data_but_no_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert d.data is t.data
        assert not d.requires_grad

    def test_len_and_repr(self):
        t = Tensor(np.zeros((4, 2)), requires_grad=True)
        assert len(t) == 4
        assert "requires_grad=True" in repr(t)


class TestBackwardMechanics:
    def test_scalar_backward_default_grad(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 4.0])

    def test_nonscalar_backward_requires_grad_argument(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_backward_with_explicit_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 3).backward(np.array([1.0, 0.0, 2.0], dtype=np.float32))
        np.testing.assert_allclose(t.grad, [3.0, 0.0, 6.0])

    def test_grad_shape_mismatch_raises(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 1).backward(np.ones(4, dtype=np.float32))

    def test_gradients_accumulate_across_backwards(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t.sum()).backward()
        (t.sum()).backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0])

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        t.sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_sums_contributions(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3
        b = t * 5
        (a + b).sum().backward()
        np.testing.assert_allclose(t.grad, [8.0])

    def test_shared_subexpression_counted_once_per_path(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        shared = t * 2
        out = (shared + shared).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_no_grad_blocks_graph(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = (t * t).sum()
        assert out._parents == []

    def test_no_grad_restores_state_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert ag.is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        # Two threads inside no_grad at once, leaving in the order that
        # corrupted a process-wide flag (first in, first out): neither
        # may switch graph recording off for the main thread.
        gates = [threading.Event() for _ in range(4)]

        def worker(entered, leave):
            with no_grad():
                entered.set()
                assert leave.wait(5)

        threads = [threading.Thread(target=worker, args=gates[i:i + 2])
                   for i in (0, 2)]
        threads[0].start()
        assert gates[0].wait(5)
        threads[1].start()
        assert gates[2].wait(5)
        assert ag.is_grad_enabled()
        gates[1].set()
        threads[0].join(5)
        gates[3].set()
        threads[1].join(5)
        assert not any(t.is_alive() for t in threads)
        assert ag.is_grad_enabled()

    def test_deep_chain_does_not_overflow(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 0.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])


class TestUnbroadcast:
    def test_noop_when_shapes_match(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_leading_axes(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_sums_size_one_axes(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        np.testing.assert_allclose(out, np.full((2, 1), 3.0))

    def test_mixed(self):
        g = np.ones((5, 2, 3))
        out = unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out, np.full((1, 3), 10.0))


class TestArithmeticGradients:
    def test_add_broadcast(self, rng):
        b = rng.standard_normal((1, 4))
        check_gradient(lambda t: t + Tensor(b, dtype=np.float64),
                       rng.standard_normal((3, 4)))

    def test_sub(self, rng):
        b = rng.standard_normal((3, 4))
        check_gradient(lambda t: Tensor(b, dtype=np.float64) - t,
                       rng.standard_normal((3, 4)))

    def test_mul_broadcast(self, rng):
        b = rng.standard_normal((3, 1))
        check_gradient(lambda t: t * Tensor(b, dtype=np.float64),
                       rng.standard_normal((3, 4)))

    def test_div(self, rng):
        b = rng.standard_normal((3, 4)) + 3.0
        check_gradient(lambda t: t / Tensor(b, dtype=np.float64),
                       rng.standard_normal((3, 4)))

    def test_div_denominator_gradient(self, rng):
        a = rng.standard_normal((3, 4))
        check_gradient(lambda t: Tensor(a, dtype=np.float64) / t,
                       rng.standard_normal((3, 4)) + 3.0)

    def test_neg(self, rng):
        check_gradient(lambda t: -t, rng.standard_normal((2, 5)))

    def test_power(self, rng):
        check_gradient(lambda t: t ** 3, rng.standard_normal((3, 3)) + 2.0)

    def test_power_tensor_exponent_rejected(self):
        t = Tensor(np.ones(2))
        with pytest.raises(TypeError):
            ag.power(t, Tensor(np.ones(2)))

    def test_exp(self, rng):
        check_gradient(ag.exp, rng.standard_normal((2, 3)))

    def test_log(self, rng):
        check_gradient(ag.log, rng.random((2, 3)) + 0.5)

    def test_sqrt(self, rng):
        check_gradient(ag.sqrt, rng.random((2, 3)) + 0.5)

    def test_abs_away_from_zero(self, rng):
        x = rng.standard_normal((3, 3))
        x[np.abs(x) < 0.2] = 0.5
        check_gradient(ag.abs_, x)

    def test_scalar_operand_promotion(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = (3.0 * t + 1.0) / 2.0 - 0.5
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [1.5])


class TestNonlinearityGradients:
    def test_relu(self, rng):
        x = rng.standard_normal((4, 4))
        x[np.abs(x) < 0.1] = 0.3  # avoid the kink
        check_gradient(ag.relu, x)

    def test_sigmoid(self, rng):
        check_gradient(ag.sigmoid, rng.standard_normal((3, 4)))

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor(np.array([-500.0, 500.0]), dtype=np.float64)
        out = ag.sigmoid(t)
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)
        assert np.isfinite(out.data).all()

    def test_tanh(self, rng):
        check_gradient(ag.tanh, rng.standard_normal((3, 4)))

    def test_clip_interior_and_exterior(self):
        t = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True,
                   dtype=np.float64)
        out = ag.clip(t, 0.0, 1.0)
        out.sum().backward()
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_maximum_gradients(self, rng):
        a = rng.standard_normal((3, 3))
        b = a + np.where(rng.random((3, 3)) > 0.5, 1.0, -1.0)
        check_gradient(lambda t: ag.maximum(t, Tensor(b, dtype=np.float64)), a)

    def test_minimum_gradients(self, rng):
        a = rng.standard_normal((3, 3))
        b = a + np.where(rng.random((3, 3)) > 0.5, 1.0, -1.0)
        check_gradient(lambda t: ag.minimum(t, Tensor(b, dtype=np.float64)), a)

    def test_maximum_tie_splits_gradient(self):
        a = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        b = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        ag.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [0.5])


class TestStructuralGradients:
    def test_matmul_2d(self, rng):
        b = rng.standard_normal((4, 5))
        check_gradient(lambda t: t @ Tensor(b, dtype=np.float64),
                       rng.standard_normal((3, 4)))

    def test_matmul_right_operand(self, rng):
        a = rng.standard_normal((3, 4))
        check_gradient(lambda t: Tensor(a, dtype=np.float64) @ t,
                       rng.standard_normal((4, 2)))

    def test_matmul_batched(self, rng):
        b = rng.standard_normal((2, 4, 3))
        check_gradient(lambda t: t @ Tensor(b, dtype=np.float64),
                       rng.standard_normal((2, 5, 4)))

    def test_sum_axis_keepdims(self, rng):
        check_gradient(lambda t: ag.sum_(t, axis=1, keepdims=True),
                       rng.standard_normal((3, 4)))

    def test_sum_multiple_axes(self, rng):
        check_gradient(lambda t: ag.sum_(t, axis=(0, 2)),
                       rng.standard_normal((2, 3, 4)))

    def test_mean_matches_manual(self, rng):
        x = rng.standard_normal((3, 4))
        t = Tensor(x, requires_grad=True, dtype=np.float64)
        ag.mean(t).backward()
        np.testing.assert_allclose(t.grad, np.full((3, 4), 1.0 / 12.0))

    def test_mean_axis(self, rng):
        check_gradient(lambda t: ag.mean(t, axis=0),
                       rng.standard_normal((3, 4)))

    def test_reshape(self, rng):
        check_gradient(lambda t: t.reshape((6, 2)),
                       rng.standard_normal((3, 4)))

    def test_transpose_default(self, rng):
        check_gradient(lambda t: t.T, rng.standard_normal((3, 4)))

    def test_transpose_axes(self, rng):
        check_gradient(lambda t: ag.transpose(t, (2, 0, 1)),
                       rng.standard_normal((2, 3, 4)))

    def test_getitem_slice(self, rng):
        check_gradient(lambda t: t[1:3], rng.standard_normal((4, 3)))

    def test_getitem_fancy_accumulates(self):
        t = Tensor(np.arange(3.0), requires_grad=True, dtype=np.float64)
        out = ag.take(t, np.array([0, 0, 2]))
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0])

    def test_concatenate(self, rng):
        b = rng.standard_normal((2, 3))
        check_gradient(
            lambda t: ag.concatenate([t, Tensor(b, dtype=np.float64)], axis=0),
            rng.standard_normal((2, 3)))

    def test_concatenate_axis1(self, rng):
        b = rng.standard_normal((2, 2))
        check_gradient(
            lambda t: ag.concatenate([Tensor(b, dtype=np.float64), t], axis=1),
            rng.standard_normal((2, 3)))

    def test_pad2d(self, rng):
        check_gradient(lambda t: ag.pad2d(t, 2),
                       rng.standard_normal((2, 1, 3, 3)))

    def test_pad2d_zero_is_identity(self):
        t = Tensor(np.ones((1, 1, 2, 2)))
        assert ag.pad2d(t, 0) is t

    def test_where(self, rng):
        cond = rng.random((3, 3)) > 0.5
        b = rng.standard_normal((3, 3))
        check_gradient(
            lambda t: ag.where(cond, t, Tensor(b, dtype=np.float64)),
            rng.standard_normal((3, 3)))


_BINARY_OPS = [ag.add, ag.sub, ag.mul, ag.div, ag.maximum, ag.minimum,
               lambda a, b: ag.where(np.array([True, False]), a, b)]


class TestScalarDtype:
    """A Python scalar takes the other operand's dtype (NumPy's NEP 50
    rule); NumPy scalars and arrays promote as they do in NumPy."""

    @pytest.mark.parametrize("op", _BINARY_OPS)
    @pytest.mark.parametrize("scalar", [2.5, 3, True])
    def test_float32_tensor_with_python_scalar_stays_float32(self, op,
                                                            scalar):
        t = Tensor(np.array([1.5, 4.0], dtype=np.float32), requires_grad=True)
        for out in (op(t, scalar), op(scalar, t)):
            assert out.dtype == np.float32
            t.zero_grad()
            out.backward(np.ones(2, dtype=np.float32))
            assert t.grad.dtype == np.float32

    @pytest.mark.parametrize("op", _BINARY_OPS)
    def test_float64_tensor_stays_float64(self, op):
        t = Tensor(np.array([1.5, 4.0]), dtype=np.float64)
        assert op(t, 2.5).dtype == op(2.5, t).dtype == np.float64

    @pytest.mark.parametrize("op", _BINARY_OPS)
    @pytest.mark.parametrize("other", [np.array(2.5), np.float64(2.5)],
                             ids=["0d-array", "np-scalar"])
    def test_numpy_float64_operand_promotes(self, op, other):
        t = Tensor(np.array([1.5, 4.0], dtype=np.float32))
        expected = (t.data * other).dtype
        assert expected == np.float64
        assert op(t, other).dtype == op(other, t).dtype == expected

    def test_operators_follow_the_rule(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        for out in (t + 1, 1 - t, t * 0.5, 2.0 / (t + 1), t / 3, t.mean()):
            assert out.dtype == np.float32

    def test_value_is_the_scalar_rounded_to_the_tensor_dtype(self):
        x = np.array([0.1, 1e8, 3.3], dtype=np.float32)
        np.testing.assert_array_equal((Tensor(x) * 0.1).data, x * 0.1)
        np.testing.assert_array_equal((0.7 - Tensor(x)).data, 0.7 - x)


def _digit_batch(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((n, 1, 28, 28), dtype=np.float32),
            rng.integers(0, 10, n))


@pytest.fixture
def conv_grad_dtypes(monkeypatch):
    """Record the gradient dtype reaching every numpy conv backward."""
    kernel = KERNELS["numpy"]
    seen = []
    for name in ("conv2d_backward_input", "conv2d_backward_weight"):
        def wrapped(ctx, g, _orig=getattr(kernel, name)):
            seen.append(str(g.dtype))
            return _orig(ctx, g)
        monkeypatch.setattr(kernel, name, wrapped)
    return seen


class TestAttackGradientsStayFloat32:
    """Attack objectives on float32 models keep every backward pass in
    float32: a scaled-logit classifier or a detector penalty must not
    send float64 gradients through the conv kernels."""

    def test_scaled_logits_output_is_float32(self):
        model = ScaledLogits(build_digit_classifier(seed=0), 6.0)
        x, _ = _digit_batch()
        assert model(Tensor(x)).dtype == np.float32

    def test_margin_step_dispatches_no_float64_conv(self, conv_grad_dtypes):
        model = ScaledLogits(build_digit_classifier(seed=0), 6.0)
        x, y = _digit_batch()
        _, grad, logits = margin_loss_and_grad(model, x, y, kappa=50.0)
        assert conv_grad_dtypes and set(conv_grad_dtypes) == {"float32"}
        assert grad.dtype == logits.dtype == np.float32

    @pytest.mark.parametrize("family", ["ead", "cw"])
    def test_detector_aware_step_dispatches_no_float64_conv(
            self, family, conv_grad_dtypes):
        clf = ScaledLogits(build_digit_classifier(seed=0), 6.0)
        ae = build_autoencoder("digits", "deep", width=3, seed=0)
        magnet = MagNet(clf, [ReconstructionDetector(ae, norm=1),
                              JSDDetector(ae, clf, temperature=10.0)],
                        Reformer(ae))
        magnet.calibrate(_digit_batch(n=20, seed=1)[0], fpr_total=0.1)
        attack = detector_aware_attack(magnet, family=family, kappa=50.0)
        x, y = _digit_batch()
        _, grad, _ = attack._attack_loss_and_grad(x, y)
        # classifier (2 convs) and the AE convs of both detector graphs
        assert len(conv_grad_dtypes) > 2
        assert set(conv_grad_dtypes) == {"float32"}
        assert grad.dtype == np.float32
