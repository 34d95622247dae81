"""Tests for the feature-squeezing defense."""

import numpy as np
import pytest

from repro.defenses.squeezing import (
    FeatureSqueezing,
    SqueezeDetector,
    Squeezer,
    bit_depth_reduction,
    default_squeezers,
    median_smoothing,
)
from repro.nn import Module, Tensor
from repro.nn.autograd import concatenate


class TestBitDepthReduction:
    def test_one_bit_binarizes(self):
        x = np.array([[[[0.2, 0.8]]]], dtype=np.float32)
        out = bit_depth_reduction(x, 1)
        np.testing.assert_allclose(out, [[[[0.0, 1.0]]]])

    def test_eight_bits_nearly_identity(self, rng):
        x = rng.random((2, 1, 4, 4)).astype(np.float32)
        out = bit_depth_reduction(x, 8)
        assert np.abs(out - x).max() <= 1.0 / 255.0 + 1e-6

    def test_levels_count(self):
        x = np.linspace(0, 1, 101, dtype=np.float32).reshape(1, 1, 1, 101)
        out = bit_depth_reduction(x, 2)
        assert len(np.unique(out)) <= 4

    def test_idempotent(self, rng):
        x = rng.random((1, 1, 4, 4)).astype(np.float32)
        once = bit_depth_reduction(x, 3)
        twice = bit_depth_reduction(once, 3)
        np.testing.assert_allclose(once, twice)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            bit_depth_reduction(np.zeros((1, 1, 2, 2)), 0)
        with pytest.raises(ValueError):
            bit_depth_reduction(np.zeros((1, 1, 2, 2)), 9)


class TestMedianSmoothing:
    def test_removes_salt_noise(self):
        x = np.zeros((1, 1, 8, 8), dtype=np.float32)
        x[0, 0, 4, 4] = 1.0  # isolated spike
        out = median_smoothing(x, 3)
        assert out[0, 0, 4, 4] == 0.0

    def test_preserves_constant_regions(self):
        x = np.full((1, 2, 6, 6), 0.5, dtype=np.float32)
        out = median_smoothing(x, 2)
        np.testing.assert_allclose(out, 0.5)

    def test_channels_independent(self):
        x = np.zeros((1, 2, 6, 6), dtype=np.float32)
        x[0, 0] = 1.0
        out = median_smoothing(x, 3)
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], 0.0)

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            median_smoothing(np.zeros((1, 1, 4, 4)), 1)


class _MeanClassifier(Module):
    """Logits linear in the mean pixel — sensitive to smoothing/quantizing."""

    def forward(self, x):
        m = x.reshape((x.shape[0], -1)).mean(axis=1, keepdims=True)
        return concatenate([(0.5 - m) * 30.0, (m - 0.5) * 30.0], axis=1)


class TestSqueezeDetector:
    def test_scores_zero_when_squeezing_is_noop(self, rng):
        det = SqueezeDetector(_MeanClassifier(),
                              [Squeezer("id", lambda x: x)])
        x = rng.random((5, 1, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(det.score(x), 0.0, atol=1e-6)

    def test_scores_positive_when_squeezing_changes_prediction(self):
        # bit-1 squeezing moves mean pixels near the decision boundary a lot
        det = SqueezeDetector(_MeanClassifier(),
                              [Squeezer("bit1", lambda x: bit_depth_reduction(x, 1))])
        x = np.full((3, 1, 4, 4), 0.55, dtype=np.float32)
        assert (det.score(x) > 0.05).all()

    def test_max_over_squeezers(self):
        strong = Squeezer("bit1", lambda x: bit_depth_reduction(x, 1))
        weak = Squeezer("id", lambda x: x)
        x = np.full((3, 1, 4, 4), 0.55, dtype=np.float32)
        both = SqueezeDetector(_MeanClassifier(), [weak, strong]).score(x)
        only_strong = SqueezeDetector(_MeanClassifier(), [strong]).score(x)
        np.testing.assert_allclose(both, only_strong, rtol=1e-6)

    def test_requires_squeezers(self):
        with pytest.raises(ValueError):
            SqueezeDetector(_MeanClassifier(), [])

    def test_forwards_in_inference_chunks(self, rng):
        """Scoring runs the shared inference path: INFERENCE_BATCH-row
        no-grad chunks, each row scored as if it were alone."""
        from repro.nn.training import INFERENCE_BATCH

        class Recording(_MeanClassifier):
            rows = []

            def forward(self, x):
                self.rows.append(x.shape[0])
                return super().forward(x)

        det = SqueezeDetector(Recording(), [
            Squeezer("bit1", lambda x: bit_depth_reduction(x, 1))])
        n = 2 * INFERENCE_BATCH + 3
        x = rng.random((n, 1, 4, 4)).astype(np.float32)
        scores = det.score(x)
        chunks = [INFERENCE_BATCH, INFERENCE_BATCH, 3]
        assert Recording.rows == chunks * 2       # raw, then squeezed
        assert not hasattr(det, "batch_size")
        alone = np.concatenate([det.score(x[i:i + 1]) for i in range(n)])
        np.testing.assert_allclose(scores, alone, rtol=1e-6)


class TestFeatureSqueezingPipeline:
    def test_default_squeezers_per_dataset(self):
        assert len(default_squeezers("digits")) == 2
        assert len(default_squeezers("objects")) == 3

    def test_calibrate_then_detect(self, rng):
        fs = FeatureSqueezing(_MeanClassifier(), dataset="digits")
        x_val = rng.uniform(0.0, 0.3, (100, 1, 4, 4)).astype(np.float32)
        fs.calibrate(x_val, fpr=0.05)
        # boundary-straddling inputs have high squeeze distance
        x_sus = np.full((5, 1, 4, 4), 0.52, dtype=np.float32)
        assert fs.detect(x_sus).mean() >= 0.8

    def test_asr_complements_accuracy(self, rng):
        fs = FeatureSqueezing(_MeanClassifier(), dataset="digits")
        x_val = rng.uniform(0.0, 0.3, (50, 1, 4, 4)).astype(np.float32)
        fs.calibrate(x_val, fpr=0.1)
        x = rng.random((10, 1, 4, 4)).astype(np.float32)
        y = np.zeros(10, dtype=np.int64)
        assert fs.attack_success_rate(x, y) == pytest.approx(
            1.0 - fs.defense_accuracy(x, y))

    def test_clean_accuracy_counts_fps_against(self, rng):
        fs = FeatureSqueezing(_MeanClassifier(), dataset="digits")
        x_val = rng.uniform(0.0, 0.3, (50, 1, 4, 4)).astype(np.float32)
        fs.calibrate(x_val, fpr=0.1)
        # class 0 = dark images; these are classified right and pass
        x = rng.uniform(0.0, 0.2, (10, 1, 4, 4)).astype(np.float32)
        acc = fs.clean_accuracy(x, np.zeros(10, dtype=np.int64))
        assert acc > 0.5

    def test_repr(self):
        fs = FeatureSqueezing(_MeanClassifier(), dataset="digits")
        assert "bit1" in repr(fs)
