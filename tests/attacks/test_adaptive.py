"""Tests for the adaptive (BPDA / detector-aware) attack machinery."""

import numpy as np
import pytest

from repro.attacks import (
    BPDAReformedModel,
    DetectorAwareCW,
    DetectorAwareEAD,
    DetectorMarginPenalty,
    ReformedModel,
    bpda_model,
    detector_aware_attack,
    detector_score_graph,
    logits_of,
    straight_through,
)
from repro.attacks.adaptive import jsd_score_graph, reconstruction_score_graph
from repro.defenses import JSDDetector, MagNet, ReconstructionDetector, Reformer
from repro.nn import Tensor
from repro.nn.autograd import no_grad
from tests.attacks.reference import lanewise_attack


@pytest.fixture(scope="module")
def reformer(tiny_autoencoder):
    return Reformer(tiny_autoencoder)


@pytest.fixture(scope="module")
def calibrated_magnet(tiny_classifier, tiny_autoencoder, tiny_splits):
    magnet = MagNet(
        tiny_classifier,
        [ReconstructionDetector(tiny_autoencoder, norm=1),
         JSDDetector(tiny_autoencoder, tiny_classifier, temperature=10.0)],
        Reformer(tiny_autoencoder))
    magnet.calibrate(tiny_splits.val.x, fpr_total=0.1)
    return magnet


class TestStraightThrough:
    def test_forward_is_exact_value(self):
        x = Tensor(np.random.rand(2, 1, 4, 4).astype(np.float32),
                   requires_grad=True)
        value = np.full((2, 1, 4, 4), 0.25, dtype=np.float32)
        out = straight_through(value, x)
        assert np.array_equal(out.data, value)

    def test_backward_is_identity_onto_backward_path(self):
        x = Tensor(np.random.rand(2, 1, 4, 4).astype(np.float32),
                   requires_grad=True)
        out = straight_through(np.zeros_like(x.data), x)
        (out * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, 3.0)

    def test_no_graph_under_no_grad(self):
        x = Tensor(np.random.rand(2, 1, 4, 4).astype(np.float32),
                   requires_grad=True)
        with no_grad():
            out = straight_through(np.zeros_like(x.data), x)
        assert out._parents == []

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((2, 1, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            straight_through(np.zeros((1, 1, 4, 4), dtype=np.float32), x)


class TestBPDAReformedModel:
    def test_forward_is_exact_defended_pipeline(self, reformer,
                                                tiny_classifier, tiny_splits):
        """BPDA forward must be bit-identical to classify(reform(x))."""
        x = tiny_splits.test.x[:8]
        model = BPDAReformedModel(reformer, tiny_classifier)
        with no_grad():
            bpda_logits = model(Tensor(x)).data
            true_logits = tiny_classifier(Tensor(reformer.reform(x))).data
        np.testing.assert_array_equal(bpda_logits, true_logits)

    def test_identity_backward_flows(self, reformer, tiny_classifier,
                                     tiny_splits):
        x = Tensor(tiny_splits.test.x[:2], requires_grad=True)
        BPDAReformedModel(reformer, tiny_classifier)(x).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).sum() > 0

    def test_surrogate_ae_backward_matches_graybox(self, reformer,
                                                   tiny_autoencoder,
                                                   tiny_classifier,
                                                   tiny_splits):
        """With the true AE as surrogate, the BPDA gradient equals the
        gray-box gradient: both chain the classifier Jacobian at AE(x)
        through the AE Jacobian at x."""
        x_np = tiny_splits.test.x[:2]
        bpda = BPDAReformedModel(reformer, tiny_classifier,
                                 surrogate=tiny_autoencoder)
        graybox = ReformedModel(tiny_autoencoder, tiny_classifier)
        xa = Tensor(x_np, requires_grad=True)
        bpda(xa).sum().backward()
        xb = Tensor(x_np, requires_grad=True)
        graybox(xb).sum().backward()
        np.testing.assert_allclose(xa.grad, xb.grad, atol=1e-5)

    def test_factory(self, calibrated_magnet, tiny_classifier):
        model = bpda_model(calibrated_magnet)
        assert isinstance(model, BPDAReformedModel)
        no_reformer = MagNet(tiny_classifier, [], None)
        with pytest.raises(ValueError):
            bpda_model(no_reformer)


class TestDetectorScoreGraphs:
    def test_reconstruction_graph_matches_numpy(self, tiny_autoencoder,
                                                tiny_splits):
        x = tiny_splits.test.x[:16]
        for norm in (1, 2):
            det = ReconstructionDetector(tiny_autoencoder, norm=norm)
            with no_grad():
                graph = reconstruction_score_graph(
                    tiny_autoencoder, Tensor(x), norm).data
            np.testing.assert_allclose(graph, det.score(x), atol=1e-6)

    def test_jsd_graph_matches_numpy(self, tiny_autoencoder, tiny_classifier,
                                     tiny_splits):
        x = tiny_splits.test.x[:16]
        det = JSDDetector(tiny_autoencoder, tiny_classifier, temperature=10.0)
        with no_grad():
            graph = jsd_score_graph(tiny_autoencoder, tiny_classifier,
                                    Tensor(x), det.temperature).data
        np.testing.assert_allclose(graph, det.score(x), atol=1e-6)

    def test_dispatch_and_gradients(self, calibrated_magnet, tiny_splits):
        x = Tensor(tiny_splits.test.x[:2], requires_grad=True)
        for det in calibrated_magnet.detectors:
            x.zero_grad()
            score = detector_score_graph(det, x)
            score.backward(np.ones_like(score.data))
            assert np.abs(x.grad).sum() > 0, det.name

    def test_unsupported_detector_rejected(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            detector_score_graph(Weird(), Tensor(np.zeros((1, 1, 8, 8))))


class TestDetectorMarginPenalty:
    def test_zero_under_thresholds(self, calibrated_magnet, tiny_splits):
        """Clean validation inputs sit under the calibrated thresholds, so
        the hinge (at frac=1.0) is zero for most of them."""
        pen = DetectorMarginPenalty(calibrated_magnet.detectors,
                                    threshold_frac=1.0)
        values = pen.values(tiny_splits.val.x)
        assert (values >= 0).all()
        # fpr=0.05 per detector: the overwhelming majority is under both.
        assert (values == 0).mean() > 0.5

    def test_positive_over_thresholds_with_gradient(self, calibrated_magnet,
                                                    tiny_splits, rng):
        """Uniform-noise inputs are far off-manifold: every score blows
        past its threshold, the penalty is positive and has a usable
        input gradient."""
        pen = DetectorMarginPenalty(calibrated_magnet.detectors)
        noise = rng.random((4,) + tiny_splits.test.x.shape[1:],
                           dtype=np.float32)
        values, grad = pen.value_and_grad(noise)
        assert (values > 0).all()
        assert grad.shape == noise.shape
        assert np.abs(grad).sum() > 0
        np.testing.assert_allclose(values, pen.values(noise), atol=1e-6)

    def test_penalty_scales_with_weight(self, calibrated_magnet, tiny_splits,
                                        rng):
        noise = rng.random((3,) + tiny_splits.test.x.shape[1:],
                           dtype=np.float32)
        base = DetectorMarginPenalty(calibrated_magnet.detectors,
                                     weight=1.0).values(noise)
        doubled = DetectorMarginPenalty(calibrated_magnet.detectors,
                                        weight=2.0).values(noise)
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-6)

    def test_validation(self, calibrated_magnet, tiny_autoencoder):
        dets = calibrated_magnet.detectors
        with pytest.raises(ValueError):
            DetectorMarginPenalty(dets, weight=0.0)
        with pytest.raises(ValueError):
            DetectorMarginPenalty(dets, threshold_frac=0.0)
        with pytest.raises(ValueError):
            DetectorMarginPenalty(dets, threshold_frac=1.5)
        uncalibrated = ReconstructionDetector(tiny_autoencoder, norm=1)
        with pytest.raises(RuntimeError):
            DetectorMarginPenalty([uncalibrated])


class TestDetectorAwareAttacks:
    def _correct_batch(self, magnet, splits, n):
        """Test examples the defended pipeline classifies correctly."""
        reformed = magnet.reformer.reform(splits.test.x)
        preds = logits_of(magnet.classifier, reformed).argmax(1)
        idx = np.flatnonzero(preds == splits.test.y)[:n]
        return splits.test.x[idx], splits.test.y[idx]

    def test_success_implies_detection_bypass(self, calibrated_magnet,
                                              tiny_splits):
        """The engine success test folds the penalty in, so a successful
        lane must simultaneously fool the defended pipeline and sit under
        every (safety-scaled) detector threshold."""
        x0, y0 = self._correct_batch(calibrated_magnet, tiny_splits, 6)
        attack = detector_aware_attack(
            calibrated_magnet, family="ead", threshold_frac=0.95,
            binary_search_steps=3, max_iterations=60, initial_const=1.0,
            lr=5e-2, beta=1e-3)
        assert isinstance(attack, DetectorAwareEAD)
        result = attack.attack(x0, y0)
        assert "detector_aware" in result.name
        if result.success.any():
            adv = result.x_adv[result.success]
            decision = calibrated_magnet.decide(adv)
            # Not flagged by any detector...
            assert not decision.detected.any()
            # ...and still misclassified after reforming.
            assert (decision.labels_reformed
                    != y0[result.success]).all()

    def test_cw_family_runs(self, calibrated_magnet, tiny_splits):
        x0, y0 = self._correct_batch(calibrated_magnet, tiny_splits, 3)
        attack = detector_aware_attack(
            calibrated_magnet, family="cw", binary_search_steps=2,
            max_iterations=20, initial_const=1.0, lr=5e-2)
        assert isinstance(attack, DetectorAwareCW)
        result = attack.attack(x0, y0)
        assert result.x_adv.shape == x0.shape
        assert "detector_aware" in result.name

    def test_unknown_family_rejected(self, calibrated_magnet):
        with pytest.raises(ValueError):
            detector_aware_attack(calibrated_magnet, family="pgd")

    def test_per_example_mode_matches_batched(self, calibrated_magnet,
                                              tiny_splits):
        """The detector-aware objective rides the masked engine: the
        batched run must match the per-example reference."""
        x0, y0 = self._correct_batch(calibrated_magnet, tiny_splits, 3)
        attack = DetectorAwareEAD(bpda_model(calibrated_magnet),
                                  calibrated_magnet.detectors,
                                  binary_search_steps=2, max_iterations=15,
                                  initial_const=1.0, lr=5e-2)
        rb = attack.attack(x0, y0)
        rl = lanewise_attack(attack, x0, y0)
        # Same tolerance as tests/attacks/test_batch_equivalence.py: BLAS
        # reduction order varies with batch size, so float-exact equality
        # against the per-example reference is not guaranteed.
        np.testing.assert_allclose(rb.x_adv, rl.x_adv, atol=1e-5)
        np.testing.assert_array_equal(rb.success, rl.success)
