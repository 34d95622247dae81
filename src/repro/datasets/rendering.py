"""Procedural 2-D rendering primitives for the synthetic datasets.

The offline environment has no MNIST/CIFAR-10, so the stand-in datasets
are rendered from parametric descriptions: digits as anti-aliased stroke
fields, objects as soft shape masks over textured backgrounds.  Everything
here is deterministic given the caller's RNG.

The primitives broadcast over a leading image axis, so the generators
render :data:`CHUNK` images per numpy call instead of one.  The blur and
the texture zoom are numpy ports of ``scipy.ndimage.gaussian_filter``
(``mode="reflect"``) and ``scipy.ndimage.zoom`` (``order=1,
mode="nearest"``) that keep scipy's arithmetic step for step, so the
pixels are bitwise those scipy gives and scipy is never imported.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

Point = Tuple[float, float]

#: Images rendered per batch.  Bounds a generator's working memory (its
#: float64 temporaries hold one chunk) whatever the split size.
CHUNK = 32


def render_chunks(render: Callable[[np.ndarray], np.ndarray], labels: np.ndarray,
                  image_shape: Tuple[int, ...]) -> np.ndarray:
    """Fill an (N, *image_shape) float32 array by ``render(labels_chunk)``.

    ``render`` makes its RNG draws image by image, so chunking leaves the
    stream order — and hence every pixel — independent of :data:`CHUNK`.
    """
    images = np.empty((len(labels),) + tuple(image_shape), dtype=np.float32)
    for start in range(0, len(labels), CHUNK):
        images[start:start + CHUNK] = render(labels[start:start + CHUNK])
    return images


def pixel_grid(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return (X, Y) coordinate grids in [0, 1] for a square canvas."""
    coords = (np.arange(size) + 0.5) / size
    return np.meshgrid(coords, coords, indexing="xy")


def segment_distance(px: np.ndarray, py: np.ndarray, a, b) -> np.ndarray:
    """Euclidean distance from each pixel to the segment a-b (unit coords).

    Endpoint coordinates may be arrays of shape (B, 1, 1), one segment per
    image; a degenerate segment (length² < 1e-12) measures to point ``a``.
    """
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    point = length_sq < 1e-12
    # A zero direction keeps ax + t * dx == ax exactly, so the segment
    # formula below equals hypot(px - ax, py - ay) for a point.
    dx, dy = np.where(point, 0.0, dx), np.where(point, 0.0, dy)
    t = ((px - ax) * dx + (py - ay) * dy) / np.where(point, 1.0, length_sq)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def render_strokes(segments, size: int, thickness, softness: float = 0.35) -> np.ndarray:
    """Render line segments as an anti-aliased intensity field in [0, 1].

    ``segments`` is (..., S, 2, 2): S segments of two (x, y) endpoints per
    image; ``thickness`` (the stroke half-width in unit coordinates) is a
    scalar or one value per image.  ``softness`` sets the width of the
    intensity falloff at the stroke edge (relative to thickness), which
    gives the glyphs MNIST-like soft edges.  Returns (..., size, size).
    """
    # (S, endpoint, coordinate, ..., 1, 1): each coordinate broadcasts per image.
    seg = np.moveaxis(np.asarray(segments, dtype=np.float64), (-3, -2, -1), (0, 1, 2))
    seg = seg[..., None, None]
    thickness = np.asarray(thickness, dtype=np.float64)[..., None, None]
    px, py = pixel_grid(size)
    dist = np.full(seg.shape[3:-2] + (size, size), np.inf)
    for a, b in seg:
        dist = np.minimum(dist, segment_distance(px, py, a, b))
    edge = np.maximum(thickness * softness, 1e-6)
    intensity = np.clip((thickness - dist) / edge + 1.0, 0.0, 1.0)
    return intensity.astype(np.float32)


def affine_points(points, rotation, scale, shear, shift,
                  center: Point = (0.5, 0.5)) -> np.ndarray:
    """Apply rotation/scale/shear/shift about ``center`` to unit-space points.

    ``points`` is (..., P, 2); the transform parameters (and each shift
    component) are scalars or arrays over the leading axes, one per image.
    """
    pts = np.asarray(points, dtype=np.float64)
    rotation, scale, shear, sx, sy = (np.asarray(v, dtype=np.float64)[..., None]
                                      for v in (rotation, scale, shear, *shift))
    cx, cy = center
    cos_r, sin_r = np.cos(rotation), np.sin(rotation)
    ux, uy = pts[..., 0] - cx, pts[..., 1] - cy
    ux = ux + shear * uy                      # shear in x
    rx = scale * (cos_r * ux - sin_r * uy)    # rotate + scale
    ry = scale * (sin_r * ux + cos_r * uy)
    return np.stack([rx + cx + sx, ry + cy + sy], axis=-1)


def _reflect(index: np.ndarray, n: int) -> np.ndarray:
    """scipy.ndimage's ``reflect`` boundary (d c b a | a b c d | d c b a).

    It mirrors with period 2n, so a kernel wider than the axis keeps
    reflecting instead of reading out of bounds.
    """
    index = index % (2 * n)
    return np.where(index < n, index, 2 * n - 1 - index)


def _gaussian_taps(sigma: np.ndarray) -> np.ndarray:
    """(R+1, len(sigma)) taps 0..R of scipy's Gaussian kernel, one column per σ.

    Each column is ``_gaussian_kernel1d(σ, 0, int(4σ + 0.5))`` (truncate=4),
    computed per radius group exactly as scipy does, then zero past its
    own radius up to the widest one, R.
    """
    radius = (4.0 * sigma + 0.5).astype(np.int64)
    taps = np.zeros((int(radius.max()) + 1, len(sigma)))
    for r in np.unique(radius):
        cols = radius == r
        s = sigma[cols]
        phi = np.exp((-0.5 / (s * s))[:, None] * np.arange(-r, r + 1) ** 2)
        taps[:r + 1, cols] = (phi / phi.sum(axis=1, keepdims=True))[:, r:].T
    return taps


def _blur_axis(x: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """One separable Gaussian pass along ``axis``, float64 inside, float32 out.

    scipy's symmetric ``correlate1d`` order: centre × w₀, then
    (left + right) × wⱼ from the outermost tap inward.  A zero tap adds
    exactly 0.0, so images with a shorter kernel are unchanged by it.
    """
    n, radius = x.shape[axis], len(taps) - 1
    padded = np.take(x, _reflect(np.arange(-radius, n + radius), n), axis=axis)
    padded = padded.astype(np.float64)

    def shifted(start):
        return padded[(slice(None),) * (axis % x.ndim) + (slice(start, start + n),)]

    out = shifted(radius) * taps[0]
    side = np.empty_like(out)
    for j in range(radius, 0, -1):
        np.add(shifted(radius - j), shifted(radius + j), out=side)
        side *= taps[j]
        out += side
    return out.astype(np.float32)


def gaussian_blur(image: np.ndarray, sigma) -> np.ndarray:
    """Blur the trailing two (spatial) axes of a float32 image.

    Leading axes (channels, images) are independent.  ``sigma`` is a
    scalar, or an array of positive values over the leading axes (one per
    image, e.g. shape (B,) for (B, C, H, W)).  Bitwise equal to
    ``scipy.ndimage.gaussian_filter(image, (0, ..., σ, σ))`` per image:
    rows then columns, rounded to float32 after each pass.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim == 0 and sigma <= 0:
        return image
    taps = _gaussian_taps(sigma.reshape(-1))
    taps = taps.reshape((len(taps),) + sigma.shape + (1,) * (image.ndim - sigma.ndim))
    return _blur_axis(_blur_axis(image, taps, -2), taps, -1)


def soft_mask(signed_distance: np.ndarray, edge: float) -> np.ndarray:
    """Convert a signed distance field (inside < 0) into a soft 0..1 mask."""
    return np.clip(0.5 - signed_distance / max(edge, 1e-6), 0.0, 1.0).astype(np.float32)


def _zoom_linear(coarse: np.ndarray, size: int) -> np.ndarray:
    """Bilinear upsampling of square grids (..., n, n) to (..., size, size).

    ``scipy.ndimage.zoom(grid, size / n, order=1, mode="nearest")`` step
    for step: output sample k sits at k·((n−1)/(N−1)) (not clamped: the
    last may overshoot n−1 by an ulp); w₀ = 1 − frac, w₁ = 1 − w₀; the
    2×2 taps are summed row-major as (c·w_row)·w_col starting from 0.0.
    """
    n = coarse.shape[-1]
    out = int(round(n * (size / n)))
    coord = np.arange(out) * ((n - 1) / (out - 1) if out > 1 else 1.0)
    lower = np.floor(coord)
    w0 = 1.0 - (coord - lower)
    lower = lower.astype(np.intp)
    taps = ((lower, w0), (np.minimum(lower + 1, n - 1), 1.0 - w0))
    layer = np.zeros(coarse.shape[:-2] + (out, out))
    for row, w_row in taps:
        weighted = np.take(coarse, row, axis=-2) * w_row[:, None]
        for col, w_col in taps:
            tap = np.take(weighted, col, axis=-1)
            tap *= w_col
            layer += tap
    return layer[..., :size, :size]


def value_noise(grids: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Multi-octave value noise in [0, 1] from per-octave random grids.

    ``grids`` holds one (..., s, s) array of uniform draws per octave,
    coarsest first, each octave at half the previous amplitude.  Returns
    (..., size, size) float32, each image min-max normalized.
    """
    texture = np.zeros(grids[0].shape[:-2] + (size, size))
    amplitude, total = 1.0, 0.0
    for coarse in grids:
        layer = _zoom_linear(coarse, size)
        layer *= amplitude
        texture += layer
        total += amplitude
        amplitude *= 0.5
    texture /= total
    lo = texture.min(axis=(-2, -1), keepdims=True)
    span = texture.max(axis=(-2, -1), keepdims=True) - lo
    varied = span > 1e-9            # a flat texture is left as it is
    np.subtract(texture, lo, out=texture, where=varied)
    np.divide(texture, span, out=texture, where=varied)
    return texture.astype(np.float32)


def perlin_like_texture(size: int, rng: np.random.Generator,
                        octaves: int = 3, base_scale: int = 4) -> np.ndarray:
    """Cheap multi-octave value noise in [0, 1] for object backgrounds."""
    grids = [rng.random((1, base_scale << k, base_scale << k)) for k in range(octaves)]
    return value_noise(grids, size)[0]
