"""Procedural 2-D rendering primitives for the synthetic datasets.

The offline environment has no MNIST/CIFAR-10, so the stand-in datasets
are rendered from parametric descriptions: digits as anti-aliased stroke
fields, objects as soft shape masks over textured backgrounds.  Everything
here is deterministic given the caller's RNG.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

Point = Tuple[float, float]


def pixel_grid(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return (X, Y) coordinate grids in [0, 1] for a square canvas."""
    coords = (np.arange(size) + 0.5) / size
    return np.meshgrid(coords, coords, indexing="xy")


def segment_distance(px: np.ndarray, py: np.ndarray,
                     a: Point, b: Point) -> np.ndarray:
    """Euclidean distance from each pixel to the segment a-b (unit coords)."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq < 1e-12:
        return np.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / length_sq
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def render_strokes(strokes: Sequence[Sequence[Point]], size: int,
                   thickness: float, softness: float = 0.35) -> np.ndarray:
    """Render polylines as an anti-aliased intensity field in [0, 1].

    ``thickness`` is the stroke half-width in unit coordinates; ``softness``
    controls the width of the intensity falloff at the stroke edge
    (relative to thickness), which gives the glyphs MNIST-like soft edges.
    """
    px, py = pixel_grid(size)
    dist = np.full((size, size), np.inf)
    for stroke in strokes:
        for a, b in zip(stroke[:-1], stroke[1:]):
            dist = np.minimum(dist, segment_distance(px, py, a, b))
    edge = max(thickness * softness, 1e-6)
    intensity = np.clip((thickness - dist) / edge + 1.0, 0.0, 1.0)
    return intensity.astype(np.float32)


def affine_points(points: Sequence[Point], rotation: float, scale: float,
                  shear: float, shift: Tuple[float, float],
                  center: Point = (0.5, 0.5)) -> list:
    """Apply rotation/scale/shear/shift about ``center`` to unit-space points."""
    cx, cy = center
    cos_r, sin_r = np.cos(rotation), np.sin(rotation)
    out = []
    for x, y in points:
        ux, uy = x - cx, y - cy
        ux = ux + shear * uy                      # shear in x
        rx = scale * (cos_r * ux - sin_r * uy)    # rotate + scale
        ry = scale * (sin_r * ux + cos_r * uy)
        out.append((rx + cx + shift[0], ry + cy + shift[1]))
    return out


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Blur trailing spatial axes; channels (leading axes) are independent."""
    if sigma <= 0:
        return image
    from scipy import ndimage

    pad = [0] * (image.ndim - 2) + [sigma, sigma]
    return ndimage.gaussian_filter(image, sigma=pad).astype(np.float32)


def add_pixel_noise(image: np.ndarray, level: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian pixel noise, clipped back into [0, 1]."""
    if level <= 0:
        return image
    noisy = image + rng.normal(0.0, level, size=image.shape)
    return np.clip(noisy, 0.0, 1.0).astype(np.float32)


def soft_mask(signed_distance: np.ndarray, edge: float) -> np.ndarray:
    """Convert a signed distance field (inside < 0) into a soft 0..1 mask."""
    return np.clip(0.5 - signed_distance / max(edge, 1e-6), 0.0, 1.0).astype(np.float32)


def perlin_like_texture(size: int, rng: np.random.Generator,
                        octaves: int = 3, base_scale: int = 4) -> np.ndarray:
    """Cheap multi-octave value noise in [0, 1] for object backgrounds."""
    from scipy import ndimage

    texture = np.zeros((size, size), dtype=np.float64)
    amplitude, total = 1.0, 0.0
    scale = base_scale
    for _ in range(octaves):
        coarse = rng.random((scale, scale))
        zoom = size / scale
        layer = ndimage.zoom(coarse, zoom, order=1, mode="nearest")[:size, :size]
        texture += amplitude * layer
        total += amplitude
        amplitude *= 0.5
        scale *= 2
    texture /= total
    lo, hi = texture.min(), texture.max()
    if hi - lo > 1e-9:
        texture = (texture - lo) / (hi - lo)
    return texture.astype(np.float32)
