"""Unit tests for the MagNet pipeline and reformer."""

import numpy as np
import pytest

from repro.defenses.detectors import ReconstructionDetector
from repro.defenses.magnet import MagNet
from repro.defenses.reformer import Reformer
from repro.nn import Module, Tensor


class _IdentityAE(Module):
    def forward(self, x):
        return x


class _ConstantAE(Module):
    def __init__(self, value=0.5):
        super().__init__()
        self.value = value

    def forward(self, x):
        return Tensor(np.full_like(x.data, self.value))


class _OutOfRangeAE(Module):
    def forward(self, x):
        return x * 3.0 - 1.0


class _FixedClassifier(Module):
    """Classifies by mean pixel: > 0.5 → class 1, else class 0."""

    def forward(self, x):
        m = x.reshape((x.shape[0], -1)).mean(axis=1, keepdims=True)
        from repro.nn.autograd import concatenate
        return concatenate([(0.5 - m) * 20.0, (m - 0.5) * 20.0], axis=1)


def _bright(n):
    return np.full((n, 1, 2, 2), 0.9, dtype=np.float32)


def _dark(n):
    return np.full((n, 1, 2, 2), 0.1, dtype=np.float32)


class TestReformer:
    def test_applies_autoencoder(self):
        ref = Reformer(_ConstantAE(0.7))
        out = ref.reform(_dark(3))
        np.testing.assert_allclose(out, 0.7, rtol=1e-6)

    def test_clips_to_valid_box(self):
        ref = Reformer(_OutOfRangeAE())
        out = ref.reform(_bright(2))
        assert out.max() <= 1.0 and out.min() >= 0.0

    def test_callable_alias(self):
        ref = Reformer(_IdentityAE())
        x = _dark(2)
        np.testing.assert_allclose(ref(x), x)

    def test_output_dtype(self):
        out = Reformer(_IdentityAE()).reform(_dark(2).astype(np.float64))
        assert out.dtype == np.float32


def _calibrated_magnet(reformer_value=None):
    """MagNet with one reconstruction detector calibrated on dark images."""
    ae = _IdentityAE() if reformer_value is None else _ConstantAE(reformer_value)
    det = ReconstructionDetector(_ConstantAE(0.1), norm=1)
    magnet = MagNet(_FixedClassifier(), [det], Reformer(ae), name="test")
    # Clean data = dark images → scores ~0; threshold just above.
    rng = np.random.default_rng(0)
    x_val = np.clip(_dark(200) + rng.normal(0, 0.01, (200, 1, 2, 2)), 0, 1
                    ).astype(np.float32)
    magnet.calibrate(x_val, fpr_total=0.02)
    return magnet


class _FailingDetector(ReconstructionDetector):
    """Scores like its parent until told to fail."""

    fail = False

    def score_from(self, memo):
        if self.fail:
            raise RuntimeError("scoring failed")
        return super().score_from(memo)


class TestCalibrateValidation:
    """Bad calibration input is rejected before any threshold moves."""

    def _toy(self):
        from repro.serving.smoke import build_toy_magnet
        return build_toy_magnet()

    def test_empty_validation_set_rejected(self):
        magnet = self._toy()
        before = [det.threshold for det in magnet.detectors]
        with pytest.raises(ValueError, match="empty"):
            magnet.calibrate(np.zeros((0, 64), np.float32))
        assert [det.threshold for det in magnet.detectors] == before

    @pytest.mark.parametrize("fpr_total", [1.5, 1.0, 0.0, -0.1])
    def test_fpr_total_outside_unit_interval_rejected(self, fpr_total):
        magnet = self._toy()
        before = [det.threshold for det in magnet.detectors]
        x_val = np.random.default_rng(0).random((32, 64)).astype(np.float32)
        with pytest.raises(ValueError, match="fpr_total"):
            magnet.calibrate(x_val, fpr_total=fpr_total)
        assert [det.threshold for det in magnet.detectors] == before

    def test_thresholds_assigned_only_after_every_score(self):
        first = ReconstructionDetector(_ConstantAE(0.1), norm=1)
        second = _FailingDetector(_ConstantAE(0.2), norm=2)
        magnet = MagNet(_FixedClassifier(), [first, second], None)
        magnet.calibrate(_dark(20), fpr_total=0.1)
        before = [first.threshold, second.threshold]
        second.fail = True
        with pytest.raises(RuntimeError, match="scoring failed"):
            magnet.calibrate(_bright(20), fpr_total=0.1)
        assert [first.threshold, second.threshold] == before

    def test_detector_calibrate_rejects_empty(self):
        det = ReconstructionDetector(_ConstantAE(0.1), norm=1)
        with pytest.raises(ValueError, match="empty"):
            det.calibrate(_dark(0), fpr=0.1)
        assert det.threshold is None


class TestMagNetDetection:
    def test_clean_inputs_pass(self):
        magnet = _calibrated_magnet()
        assert magnet.detect(_dark(5)).mean() < 0.5

    def test_anomalous_inputs_flagged(self):
        magnet = _calibrated_magnet()
        assert magnet.detect(_bright(5)).all()

    def test_no_detectors_never_flags(self):
        magnet = MagNet(_FixedClassifier(), [], Reformer(_IdentityAE()))
        assert not magnet.detect(_bright(4)).any()

    def test_detector_flags_shape(self):
        magnet = _calibrated_magnet()
        flags = magnet.detector_flags(_dark(3))
        assert flags.shape == (1, 3)


class TestMagNetDecision:
    def test_decision_fields(self):
        magnet = _calibrated_magnet()
        decision = magnet.decide(_dark(4))
        assert decision.detected.shape == (4,)
        assert decision.labels_raw.shape == (4,)
        assert decision.labels_reformed.shape == (4,)
        assert len(decision) == 4

    def test_reformer_changes_labels(self):
        # Reformer maps everything to bright → class 1.
        magnet = _calibrated_magnet(reformer_value=0.9)
        decision = magnet.decide(_dark(3))
        np.testing.assert_array_equal(decision.labels_raw, 0)
        np.testing.assert_array_equal(decision.labels_reformed, 1)

    def test_no_reformer_means_identity(self):
        magnet = MagNet(_FixedClassifier(), [], None)
        x = _dark(3)
        np.testing.assert_allclose(magnet.reform(x), x)


class TestMagNetMetrics:
    def test_defense_accuracy_detected_counts(self):
        magnet = _calibrated_magnet()
        # Bright inputs: detected (recon error huge) → accuracy 1 even
        # though the classifier calls them class 1 and we claim label 0.
        acc = magnet.defense_accuracy(_bright(5), np.zeros(5, dtype=int))
        assert acc == 1.0

    def test_defense_accuracy_reformed_counts(self):
        magnet = _calibrated_magnet()
        # Dark inputs pass detection, reform(identity) keeps class 0.
        acc = magnet.defense_accuracy(_dark(5), np.zeros(5, dtype=int))
        assert acc == 1.0

    def test_asr_complements_accuracy(self):
        magnet = _calibrated_magnet()
        x = np.concatenate([_dark(3), _bright(3)])
        y = np.zeros(6, dtype=int)
        assert magnet.attack_success_rate(x, y) == pytest.approx(
            1.0 - magnet.defense_accuracy(x, y))

    def test_clean_accuracy_counts_false_positives_as_errors(self):
        magnet = _calibrated_magnet()
        # Bright inputs ARE class 1 (classifier is right), but the
        # detector flags them → clean accuracy 0.
        acc = magnet.clean_accuracy(_bright(4), np.ones(4, dtype=int))
        assert acc == 0.0

    def test_clean_accuracy_correct_and_passed(self):
        magnet = _calibrated_magnet()
        acc = magnet.clean_accuracy(_dark(4), np.zeros(4, dtype=int))
        assert acc == 1.0

    def test_repr(self):
        magnet = _calibrated_magnet()
        assert "recon_l1" in repr(magnet)


class TestDecideBatch:
    """decide_batch: the serving entry point mirrors decide() exactly."""

    def test_matches_decide_bitwise(self):
        magnet = _calibrated_magnet()
        x = np.concatenate([_dark(3), _bright(3)])
        offline = magnet.decide(x)
        batched = magnet.decide_batch(x)
        np.testing.assert_array_equal(batched.detected, offline.detected)
        np.testing.assert_array_equal(batched.labels_raw, offline.labels_raw)
        np.testing.assert_array_equal(batched.labels_reformed,
                                      offline.labels_reformed)
        np.testing.assert_array_equal(batched.detector_flags,
                                      offline.detector_flags)

    def test_materializes_scores_and_timings(self):
        magnet = _calibrated_magnet()
        decision = magnet.decide_batch(_dark(4))
        assert decision.detector_scores.shape == (1, 4)
        np.testing.assert_array_equal(
            decision.detector_flags,
            decision.detector_scores > magnet.detectors[0].threshold)
        assert set(decision.stage_s) == {"detect", "reform", "classify"}
        assert all(v >= 0 for v in decision.stage_s.values())

    def test_uncalibrated_detector_raises(self):
        det = ReconstructionDetector(_ConstantAE(0.1), norm=1)
        magnet = MagNet(_FixedClassifier(), [det], None, name="uncal")
        with pytest.raises(RuntimeError, match="calibrate"):
            magnet.decide_batch(_dark(2))


class TestEmptyBatch:
    """N=0 fast paths: the serving flush path must survive empty batches."""

    def _empty(self):
        return np.zeros((0, 1, 2, 2), dtype=np.float32)

    def test_decide_empty(self):
        decision = _calibrated_magnet().decide(self._empty())
        assert len(decision) == 0
        assert decision.detected.shape == (0,)
        assert decision.labels_raw.shape == (0,)
        assert decision.labels_reformed.shape == (0,)

    def test_decide_batch_empty(self):
        decision = _calibrated_magnet().decide_batch(self._empty())
        assert len(decision) == 0
        assert decision.detector_scores.shape == (1, 0)
        assert decision.detector_flags.shape == (1, 0)

    def test_accuracy_helpers_empty(self):
        magnet = _calibrated_magnet()
        y = np.zeros(0, dtype=int)
        assert magnet.defense_accuracy(self._empty(), y) == 0.0
        assert magnet.attack_success_rate(self._empty(), y) == 0.0
        assert magnet.clean_accuracy(self._empty(), y) == 0.0

    def test_detector_score_and_flags_empty(self):
        magnet = _calibrated_magnet()
        det = magnet.detectors[0]
        assert det.score(self._empty()).shape == (0,)
        assert det.flags(self._empty()).shape == (0,)
        assert magnet.detector_scores(self._empty()).shape == (1, 0)
        assert magnet.detect(self._empty()).shape == (0,)

    def test_reformer_empty(self):
        out = Reformer(_ConstantAE(0.5)).reform(self._empty())
        assert out.shape == (0, 1, 2, 2)
        assert out.dtype == np.float32

    def test_jsd_detector_empty(self):
        from repro.defenses.detectors import JSDDetector
        det = JSDDetector(_IdentityAE(), _FixedClassifier())
        assert det.score(self._empty()).shape == (0,)
