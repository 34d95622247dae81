"""Conv kernels: equivalence, edge cases, metering, and the kernel each
model carries through the experiment pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.backend import KERNELS
from repro.nn.functional import conv2d, conv_output_size
from repro.nn.gradcheck import backend_equivalence_matrix, combo_check


# ----------------------------------------------------------------------
# The kernel table
# ----------------------------------------------------------------------

class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(KERNELS) == {"numpy", "fft"}
        assert all(KERNELS[name].name == name for name in KERNELS)

    def test_unknown_name_raises_with_available_list(self):
        from repro.nn.layers import Conv2D, Sequential, set_conv_kernel

        with pytest.raises(ValueError, match="unknown nn backend.*fft, numpy"):
            Conv2D(1, 1, 3, conv_kernel="cuda")
        with pytest.raises(ValueError, match="unknown nn backend"):
            set_conv_kernel(Sequential(Conv2D(1, 1, 3)), "cuda")


# ----------------------------------------------------------------------
# Interchangeability: exhaustive gradcheck sweep + equivalence matrix
# ----------------------------------------------------------------------

class TestInterchangeability:
    def test_combo_check_conv2d_all_backends(self):
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal((2, 2, 6, 6)),
              rng.standard_normal((1, 1, 5, 7))]
        ws = [rng.standard_normal((3, 2, 3, 3)) * 0.5]
        checked = combo_check(
            lambda x, w, **kw: conv2d(x, w, **kw),
            xs[:1], ws, stride=[1, 2], padding=[0, 1], dilation=[1, 2])
        # 1 x * 1 w * 2 strides * 2 paddings * 2 dilations * 2 kernels,
        # minus consistently-rejected overhang combinations.
        assert checked >= 8

    def test_combo_check_rejections_consistent(self):
        # kernel 5 on unpadded size-3 input must raise on EVERY conv
        # kernel (combo_check asserts cross-kernel consistency).
        rng = np.random.default_rng(1)
        checked = combo_check(
            lambda x, w, **kw: conv2d(x, w, **kw),
            [rng.standard_normal((1, 1, 3, 3))],
            [rng.standard_normal((1, 1, 5, 5))],
            padding=[0, 1, 2])
        # only padding=1 (size 5 exactly) and padding=2 survive
        assert checked == 2 * len(KERNELS)

    def test_equivalence_matrix_bounds(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = (rng.standard_normal((4, 3, 3, 3)) / 5).astype(np.float32)
        matrix = backend_equivalence_matrix(
            lambda x, w, **kw: conv2d(x, w, padding=1, **kw), x, w)
        assert matrix["numpy"]["out"] == 0.0
        assert matrix["fft"]["out"] > 0.0            # tolerance contract
        fft = KERNELS["fft"]
        scale = float(np.abs(x).max())
        assert matrix["fft"]["out"] <= fft.rtol * 10 * scale

    def test_float32_stays_float32_on_every_backend(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        for name in KERNELS:
            xt = Tensor(x, requires_grad=True, dtype=np.float32)
            wt = Tensor(w, requires_grad=True, dtype=np.float32)
            y = conv2d(xt, wt, padding=1, conv_kernel=name)
            y.sum().backward()
            assert y.data.dtype == np.float32, name
            assert xt.grad.dtype == np.float32, name
            assert wt.grad.dtype == np.float32, name


# ----------------------------------------------------------------------
# The numpy forward against its NCHW-gather reference, bit for bit
# ----------------------------------------------------------------------

def _reference_forward(x, weight, bias, stride, padding, dilation):
    """The earlier numpy forward: ``np.pad``, a tap-by-tap NCHW im2col,
    the same GEMM, ``+= bias`` in NHWC and one cast back to NCHW."""
    co, ci, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, _, h, w = xp.shape
    ho = (h - (kh - 1) * dilation - 1) // stride + 1
    wo = (w - (kw - 1) * dilation - 1) // stride + 1
    cols = np.empty((n, ho, wo, ci, kh, kw), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i * dilation:i * dilation + stride * ho:stride,
                       j * dilation:j * dilation + stride * wo:stride]
            cols[:, :, :, :, i, j] = patch.transpose(0, 2, 3, 1)
    cols_flat = cols.reshape(n, ho, wo, ci * kh * kw)
    w_flat = weight.reshape(co, ci * kh * kw)
    out = cols_flat @ w_flat.T
    if bias is not None:
        out += bias
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2), dtype=x.dtype)
    ctx = {"cols_flat": cols_flat, "w_flat": w_flat,
           "shape": (n, co, ci, kh, kw, ho, wo), "padded_shape": xp.shape,
           "stride": stride, "padding": padding, "dilation": dilation}
    return out, ctx


def _assert_matches_reference(x, weight, bias, stride, padding, dilation):
    kernel = KERNELS["numpy"]
    out, ctx = kernel.conv2d_forward(x, weight, bias, stride, padding,
                                     dilation, needs_grad=True)
    ref, ref_ctx = _reference_forward(x, weight, bias, stride, padding,
                                      dilation)
    assert out.dtype == ref.dtype and out.flags.c_contiguous
    np.testing.assert_array_equal(out, ref)
    g = np.random.default_rng(1).standard_normal(out.shape).astype(out.dtype)
    np.testing.assert_array_equal(kernel.conv2d_backward_input(ctx, g),
                                  kernel.conv2d_backward_input(ref_ctx, g))
    np.testing.assert_array_equal(kernel.conv2d_backward_weight(ctx, g),
                                  kernel.conv2d_backward_weight(ref_ctx, g))


class TestNumpyForwardOracle:
    """The channels-last gather builds the same column buffer and GEMM
    operands as the NCHW reference, so everything downstream is bitwise
    equal: the output and both backward results."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_bitwise_equal_to_reference(self, stride, padding, dilation,
                                        with_bias, dtype):
        rng = np.random.default_rng(stride * 100 + padding * 10 + dilation)
        x = rng.standard_normal((2, 3, 9, 8)).astype(dtype)
        w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype) if with_bias else None
        _assert_matches_reference(x, w, b, stride, padding, dilation)

    @pytest.mark.parametrize("x_shape, co, k, padding", [
        ((6, 1, 28, 28), 16, 3, 1), ((6, 16, 14, 14), 32, 3, 1),
        ((6, 3, 32, 32), 24, 3, 1), ((6, 24, 16, 16), 48, 3, 1),
        ((6, 48, 8, 8), 64, 3, 1), ((64, 3, 32, 32), 3, 3, 1),
        ((80, 48, 8, 8), 64, 3, 1),
    ])
    def test_table1_shapes(self, x_shape, co, k, padding):
        rng = np.random.default_rng(sum(x_shape))
        x = rng.random(x_shape, dtype=np.float32)
        w = (rng.standard_normal((co, x_shape[1], k, k)) / 5).astype(
            np.float32)
        b = rng.standard_normal(co).astype(np.float32)
        _assert_matches_reference(x, w, b, 1, padding, 1)

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 5, 2, 3)).astype(np.float32)
        x = x.transpose(2, 3, 0, 1)                  # (2, 3, 7, 5), strided
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        _assert_matches_reference(x, w, None, 1, 1, 1)


# ----------------------------------------------------------------------
# Edge handling
# ----------------------------------------------------------------------

class TestEdgeHandling:
    def test_conv_output_size_ok(self):
        assert conv_output_size(28, 3, 1, 1) == 28
        assert conv_output_size(5, 5, 1, 0) == 1

    def test_conv_output_size_overhang_raises(self):
        with pytest.raises(ValueError, match="does not fit"):
            conv_output_size(3, 5, 1, 0)
        with pytest.raises(ValueError, match="does not fit"):
            conv_output_size(2, 3, 2, 0)

    @pytest.mark.parametrize("backend", ["numpy", "fft"])
    def test_conv2d_overhang_raises_before_dispatch(self, backend):
        x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
        with pytest.raises(ValueError, match="does not fit"):
            conv2d(x, w, conv_kernel=backend)

    def test_dilated_overhang_raises(self):
        # effective kernel (3-1)*3+1 = 7 > padded size 5+0
        x = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="does not fit"):
            conv2d(x, w, dilation=3)


# ----------------------------------------------------------------------
# fft against numpy on the paper's workloads
# ----------------------------------------------------------------------

#: Scale-relative bound for one fft dispatch: max|a - ref| <= this x
#: max|ref|.  The float32 error grows ~sqrt(K) with the accumulation
#: length K = Ci*kh*kw; 2e-3 covers the paper's K = 2304 with margin.
FFT_GATE_RTOL = 2e-3

#: The paper profile's AE conv trio at batch 1: (ci, co) at 28x28, 3x3
#: same padding.
PAPER_AE_CONVS = {"conv_1_256": (1, 256), "conv_256_256": (256, 256),
                  "conv_256_1": (256, 1)}


class TestFftAgainstNumpy:
    """Single dispatches are held to a tight bound; iterated trajectories
    (training, attacks) only to aggregate agreement, because per-step
    tolerance error compounds and can flip borderline attack successes
    (docs/nn_backends.md)."""

    @pytest.mark.parametrize("ci,co", PAPER_AE_CONVS.values(),
                             ids=PAPER_AE_CONVS.keys())
    def test_paper_ae_conv_within_gate(self, ci, co):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, ci, 28, 28)).astype(np.float32)
        w = (rng.standard_normal((co, ci, 3, 3)).astype(np.float32)
             / np.sqrt(ci * 9))
        b = rng.standard_normal(co).astype(np.float32)
        passes = {}
        for name in ("numpy", "fft"):
            kernel = KERNELS[name]
            out, ctx = kernel.conv2d_forward(x, w, b, 1, 1, 1,
                                             needs_grad=True)
            g = np.random.default_rng(1).standard_normal(
                out.shape).astype(np.float32)
            passes[name] = {"out": out,
                            "gx": kernel.conv2d_backward_input(ctx, g),
                            "gw": kernel.conv2d_backward_weight(ctx, g)}
        for field, ref in passes["numpy"].items():
            err = np.abs(passes["fft"][field] - ref).max() / np.abs(ref).max()
            assert err <= FFT_GATE_RTOL, f"{field}: rel err {err:.2e}"

    def test_ae_epoch_loss_within_one_percent(self):
        from repro.nn import Conv2D, Sequential, Sigmoid, Trainer

        x = np.random.default_rng(3).random((8, 1, 28, 28)).astype(np.float32)
        losses = {}
        for name in ("numpy", "fft"):
            model = Sequential(
                Conv2D(1, 32, 3, rng=np.random.default_rng(10),
                       conv_kernel=name), Sigmoid(),
                Conv2D(32, 1, 3, rng=np.random.default_rng(11),
                       conv_kernel=name), Sigmoid())
            losses[name] = Trainer(model, loss="mse", seed=0).fit(
                x, None, epochs=1, batch_size=4,
                verbose=False).final_train_loss
        assert losses["fft"] == pytest.approx(losses["numpy"], rel=1e-2)

    def test_ead_outcomes_agree(self, tiny_classifier, tiny_splits):
        import copy

        from repro.attacks import EAD, logits_of
        from repro.nn.layers import set_conv_kernel

        preds = logits_of(tiny_classifier, tiny_splits.test.x).argmax(1)
        idx = np.flatnonzero(preds == tiny_splits.test.y)[:4]
        x0, y0 = tiny_splits.test.x[idx], tiny_splits.test.y[idx]
        models = {"numpy": tiny_classifier,
                  "fft": set_conv_kernel(copy.deepcopy(tiny_classifier),
                                         "fft")}
        # At 10 iterations a const near 100 is needed for any success.
        results = {name: EAD(model, beta=1e-1, kappa=0.0,
                             binary_search_steps=1, max_iterations=10,
                             initial_const=100.0).attack(x0, y0)
                   for name, model in models.items()}
        ref, got = results["numpy"], results["fft"]
        # Without a reference success the L1 check below is vacuous.
        assert ref.success.any()
        assert (got.success == ref.success).mean() >= 0.9
        both = got.success & ref.success
        assert both.any()
        ref_l1 = float(ref.l1[both].mean())
        assert abs(float(got.l1[both].mean()) - ref_l1) <= 0.25 * ref_l1


# ----------------------------------------------------------------------
# Dispatch metering
# ----------------------------------------------------------------------

class TestMetering:
    def test_dispatches_counted_per_backend(self):
        from repro.nn.backend import kernel_stats

        before = kernel_stats().get("fft", {}).get("dispatches", 0)
        x = Tensor(np.zeros((1, 1, 6, 6), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        conv2d(x, w, padding=1, conv_kernel="fft")
        after = kernel_stats()["fft"]["dispatches"]
        assert after == before + 1

    def test_kernel_seconds_accumulate(self):
        from repro.nn.backend import kernel_stats

        x = Tensor(np.zeros((1, 1, 6, 6), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        conv2d(x, w, padding=1)
        stats = kernel_stats()["numpy"]
        assert stats["seconds"] >= 0.0
        assert stats["dispatches"] >= 1

    def test_obs_counters_track_dispatches(self):
        from repro.obs import counter

        total = counter("nn/conv_dispatches")
        per_backend = counter("nn/conv_dispatches/numpy")
        t0, b0 = total.value, per_backend.value
        x = Tensor(np.zeros((1, 1, 6, 6), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        conv2d(x, w, padding=1)
        assert counter("nn/conv_dispatches").value == t0 + 1
        assert counter("nn/conv_dispatches/numpy").value == b0 + 1

    def test_flush_kernel_events_idempotent(self):
        from repro.nn.backend import flush_kernel_events

        x = Tensor(np.zeros((1, 1, 6, 6), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        conv2d(x, w, padding=1)
        flush_kernel_events()
        flush_kernel_events()  # deltas only; must not double-count/raise


# ----------------------------------------------------------------------
# The kernel each model carries through the pipeline
# ----------------------------------------------------------------------

def _fft_model():
    from repro.nn.layers import Conv2D, Sequential

    return Sequential(Conv2D(1, 2, 3, conv_kernel="fft"))


def _kernel_probe(model):
    """Run ``model`` once; report the pid and the kernels it dispatched.

    Module-level so a process pool pickles it by reference: the model
    (and the kernel name it carries) is the only state a worker gets.
    """
    import os

    from repro.nn.backend import kernel_stats

    def dispatches():
        return {name: stat["dispatches"]
                for name, stat in kernel_stats().items()}

    x = np.random.default_rng(0).standard_normal(
        (1, 1, 6, 6)).astype(np.float32)
    before = dispatches()
    y = model(Tensor(x))
    after = dispatches()
    grew = sorted(name for name, n in after.items()
                  if n > before.get(name, 0))
    return os.getpid(), grew, y.data.tobytes()


def _context(profile, tmp_path, **overrides):
    from repro.experiments.context import ExperimentContext
    from repro.utils.cache import DiskCache

    return ExperimentContext(
        "digits", profile=dataclasses.replace(profile, **overrides),
        cache=DiskCache(tmp_path))


class TestPlumbing:
    def test_profile_field_defaults(self):
        from repro.experiments.config import PAPER, QUICK, SMOKE

        assert PAPER.nn_backend == "fft"
        assert QUICK.nn_backend == "numpy"
        assert SMOKE.nn_backend == "numpy"

    def test_context_rejects_unknown_backend(self, tiny_fft_profile,
                                             tmp_path):
        with pytest.raises(ValueError, match="unknown nn backend"):
            _context(tiny_fft_profile, tmp_path, nn_backend="cuda")

    def test_memoized_context_follows_the_profile_kernel(self, tmp_path):
        from repro.experiments.config import SMOKE
        from repro.experiments.registry import clear_contexts, get_context
        from repro.utils.cache import DiskCache

        cache = DiskCache(tmp_path)
        try:
            get_context("digits", SMOKE, cache=cache)
            fft = get_context("digits",
                              dataclasses.replace(SMOKE, nn_backend="fft"),
                              cache=cache)
        finally:
            clear_contexts()
        assert fft.profile.nn_backend == "fft"

    def test_attack_cache_key_stable_for_numpy_but_split_for_fft(
            self, tmp_path):
        from repro.experiments.config import SMOKE

        spec = {"attack": "ead", "variant": "default", "beta": 0.01}
        keys = {}
        for kernel in ("numpy", "fft"):
            ctx = _context(SMOKE, tmp_path, nn_backend=kernel)
            # avoid training a classifier just to fingerprint the key
            ctx._clf_fingerprint = "test-fingerprint"
            keys[kernel] = ctx._attack_key(spec)
        # The numpy key predates per-model kernels; existing stores hit.
        assert keys["numpy"] == "2ed0c4d8e61bdff5"
        assert keys["fft"] != keys["numpy"]

    def test_models_key_stable_for_numpy_but_split_for_fft(self, tmp_path):
        from repro.experiments.config import SMOKE

        keys = {}
        for kernel in ("numpy", "fft"):
            ctx = _context(SMOKE, tmp_path, name="tiny",
                           digits_sizes=(200, 100, 100), nn_backend=kernel)
            keys[kernel] = ctx.zoo._key(ctx.classifier_spec())
        assert keys["numpy"] == "f872c933a34a5daf"
        assert keys["fft"] != keys["numpy"]

    def test_fft_profile_runs_every_conv_on_fft(self, tiny_fft_profile,
                                                tmp_path):
        """Training, calibration and attacks all run the profile's kernel."""
        from repro.nn.backend import kernel_stats

        def dispatches():
            return {name: stat["dispatches"]
                    for name, stat in kernel_stats().items()}

        before = dispatches()
        ctx = _context(tiny_fft_profile, tmp_path)
        ctx.magnet("default")          # classifier + AE training, calibration
        ctx.ead(tiny_fft_profile.betas[0], tiny_fft_profile.digits_kappas[0])
        after = dispatches()
        grew = {name for name, n in after.items() if n > before.get(name, 0)}
        assert grew == {"fft"}

    def test_workers_inherit_active_backend(self):
        """jobs>1 workers run the kernel the pickled model carries."""
        import os

        from repro.runtime.executor import ParallelExecutor

        results = ParallelExecutor(jobs=2).map(
            _kernel_probe, [_fft_model() for _ in range(4)])
        assert [grew for _, grew, _ in results] == [["fft"]] * 4
        assert any(pid != os.getpid() for pid, _, _ in results)

    def test_serial_map_inherits_backend_too(self):
        from repro.runtime.executor import ParallelExecutor

        results = ParallelExecutor(jobs=1).map(
            _kernel_probe, [_fft_model(), _fft_model()])
        assert [grew for _, grew, _ in results] == [["fft"], ["fft"]]

    def test_worker_inheritance_is_deterministic(self):
        """Same model, same kernel, any fan-out: identical outputs."""
        from repro.runtime.executor import ParallelExecutor

        models = [_fft_model() for _ in range(3)]
        serial = ParallelExecutor(jobs=1).map(_kernel_probe, models)
        fanned = ParallelExecutor(jobs=2).map(_kernel_probe, models)
        assert [out for _, _, out in serial] == [out for _, _, out in fanned]
