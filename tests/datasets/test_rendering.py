"""Unit tests for the procedural rendering primitives."""

import numpy as np
import pytest

from repro.datasets import rendering as R


class TestPixelGrid:
    def test_shapes_and_range(self):
        px, py = R.pixel_grid(8)
        assert px.shape == (8, 8)
        assert 0 < px.min() < px.max() < 1

    def test_pixel_centres(self):
        px, _ = R.pixel_grid(2)
        np.testing.assert_allclose(px[0], [0.25, 0.75])


class TestSegmentDistance:
    def test_point_on_segment_is_zero(self):
        px = np.array([[0.5]])
        py = np.array([[0.5]])
        d = R.segment_distance(px, py, (0.0, 0.5), (1.0, 0.5))
        assert d[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_perpendicular_distance(self):
        px = np.array([[0.5]])
        py = np.array([[0.8]])
        d = R.segment_distance(px, py, (0.0, 0.5), (1.0, 0.5))
        assert d[0, 0] == pytest.approx(0.3)

    def test_beyond_endpoint_uses_endpoint(self):
        px = np.array([[2.0]])
        py = np.array([[0.5]])
        d = R.segment_distance(px, py, (0.0, 0.5), (1.0, 0.5))
        assert d[0, 0] == pytest.approx(1.0)

    def test_degenerate_segment_is_point_distance(self):
        px = np.array([[1.0]])
        py = np.array([[1.0]])
        d = R.segment_distance(px, py, (0.0, 0.0), (0.0, 0.0))
        assert d[0, 0] == pytest.approx(np.sqrt(2.0))


class TestRenderStrokes:
    def test_output_range_and_dtype(self):
        img = R.render_strokes([[(0.2, 0.5), (0.8, 0.5)]], 16, 0.05)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_stroke_center_saturated(self):
        img = R.render_strokes([[(0.1, 0.5), (0.9, 0.5)]], 16, 0.08)
        assert img[8, 8] == pytest.approx(1.0)

    def test_far_pixels_empty(self):
        img = R.render_strokes([[(0.5, 0.5), (0.5, 0.5)]], 16, 0.03)
        assert img[0, 0] == 0.0

    def test_thicker_stroke_covers_more(self):
        thin = R.render_strokes([[(0.1, 0.5), (0.9, 0.5)]], 32, 0.02)
        thick = R.render_strokes([[(0.1, 0.5), (0.9, 0.5)]], 32, 0.08)
        assert thick.sum() > thin.sum()


class TestAffinePoints:
    def test_identity(self):
        pts = [(0.3, 0.4), (0.7, 0.6)]
        out = R.affine_points(pts, 0.0, 1.0, 0.0, (0.0, 0.0))
        np.testing.assert_allclose(out, pts)

    def test_shift(self):
        out = R.affine_points([(0.5, 0.5)], 0.0, 1.0, 0.0, (0.1, -0.2))
        np.testing.assert_allclose(out, [(0.6, 0.3)])

    def test_rotation_preserves_center(self):
        out = R.affine_points([(0.5, 0.5)], 1.0, 1.0, 0.0, (0.0, 0.0))
        np.testing.assert_allclose(out, [(0.5, 0.5)], atol=1e-12)

    def test_scale_about_center(self):
        out = R.affine_points([(0.7, 0.5)], 0.0, 2.0, 0.0, (0.0, 0.0))
        np.testing.assert_allclose(out, [(0.9, 0.5)], atol=1e-12)

    def test_rotation_90_degrees(self):
        out = R.affine_points([(0.7, 0.5)], np.pi / 2, 1.0, 0.0, (0.0, 0.0))
        np.testing.assert_allclose(out, [(0.5, 0.7)], atol=1e-9)


class TestNoiseAndBlur:
    def test_blur_preserves_mean(self, rng):
        img = rng.random((8, 8)).astype(np.float32)
        out = R.gaussian_blur(img, 1.0)
        assert out.mean() == pytest.approx(img.mean(), rel=0.05)

    def test_blur_zero_sigma_identity(self, rng):
        img = rng.random((8, 8)).astype(np.float32)
        assert R.gaussian_blur(img, 0.0) is img

    def test_blur_multichannel_keeps_channels_independent(self):
        img = np.zeros((2, 8, 8), dtype=np.float32)
        img[0] = 1.0
        out = R.gaussian_blur(img, 1.0)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-6)



class TestMasksAndTexture:
    def test_soft_mask_inside_outside(self):
        sd = np.array([[-1.0, 0.0, 1.0]])
        mask = R.soft_mask(sd, 0.1)
        assert mask[0, 0] == 1.0
        assert mask[0, 1] == pytest.approx(0.5)
        assert mask[0, 2] == 0.0

    def test_texture_range_and_shape(self, rng):
        tex = R.perlin_like_texture(32, rng)
        assert tex.shape == (32, 32)
        assert tex.min() >= 0.0 and tex.max() <= 1.0

    def test_texture_deterministic(self):
        a = R.perlin_like_texture(16, np.random.default_rng(1))
        b = R.perlin_like_texture(16, np.random.default_rng(1))
        np.testing.assert_allclose(a, b)

    def test_texture_not_constant(self, rng):
        tex = R.perlin_like_texture(32, rng)
        assert tex.std() > 0.05
