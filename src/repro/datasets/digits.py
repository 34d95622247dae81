"""SyntheticDigits — the offline stand-in for MNIST.

28x28 single-channel digit glyphs rendered from seven-segment skeletons
with handwriting-like variation: per-endpoint jitter, random affine
(rotation / scale / shear / shift), variable stroke thickness, Gaussian
blur and pixel noise.  The result is a 10-class image manifold with the
properties the paper's experiments rely on: a small conv net classifies
it with ~99% accuracy, and a small conv autoencoder learns its manifold
well enough for MagNet's reconstruction-error detectors to work.

Images are rendered :data:`~repro.datasets.rendering.CHUNK` at a time:
each image's RNG draws are made in stream order, then the chunk is
rasterized, blurred and noised in a few numpy calls.
:func:`render_digit` is that path for one image.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.datasets.base import Dataset, DataSplits
from repro.datasets.rendering import (
    affine_points,
    gaussian_blur,
    render_chunks,
    render_strokes,
)
from repro.utils.rng import rng_from_seed

IMAGE_SIZE = 28
NUM_CLASSES = 10

# Canonical glyph box in unit coordinates.
_L, _R = 0.30, 0.70
_T, _M, _B = 0.18, 0.50, 0.82

# Seven-segment endpoints (x grows right, y grows down).
_SEGMENTS: Dict[str, Tuple[Tuple[float, float], Tuple[float, float]]] = {
    "A": ((_L, _T), (_R, _T)),   # top
    "B": ((_R, _T), (_R, _M)),   # top-right
    "C": ((_R, _M), (_R, _B)),   # bottom-right
    "D": ((_L, _B), (_R, _B)),   # bottom
    "E": ((_L, _M), (_L, _B)),   # bottom-left
    "F": ((_L, _T), (_L, _M)),   # top-left
    "G": ((_L, _M), (_R, _M)),   # middle
}

DIGIT_SEGMENTS: Dict[int, str] = {
    0: "ABCDEF",
    1: "BC",
    2: "ABGED",
    3: "ABGCD",
    4: "FGBC",
    5: "AFGCD",
    6: "AFGECD",
    7: "ABC",
    8: "ABCDEFG",
    9: "ABCDFG",
}


def digit_skeleton(digit: int) -> List[List[Tuple[float, float]]]:
    """Return the canonical stroke list (polylines) for ``digit``."""
    if digit not in DIGIT_SEGMENTS:
        raise ValueError(f"digit must be 0-9, got {digit}")
    return [list(_SEGMENTS[s]) for s in DIGIT_SEGMENTS[digit]]


_MAX_SEGMENTS = max(len(s) for s in DIGIT_SEGMENTS.values())

#: Every skeleton as (7, 2, 2) segments, padded by repeating its first
#: segment: a repeat leaves the stroke field's running minimum unchanged.
_SKELETONS = np.array([
    strokes + strokes[:1] * (_MAX_SEGMENTS - len(strokes))
    for strokes in map(digit_skeleton, range(NUM_CLASSES))])


def _render_digits(labels: np.ndarray, rng: np.random.Generator, size: int,
                   clean: bool = False) -> np.ndarray:
    """Render ``labels`` as (B, 1, size, size) float32 images in [0, 1].

    A first pass makes every RNG draw image by image, in the order one
    image at a time would; the second renders the whole batch at once.
    """
    n = len(labels)
    segments = _SKELETONS[labels]
    if clean:
        thickness, blur_sigma = 0.045, 0.5
    else:
        draws = np.empty((n, 8))
        jitter = np.empty_like(segments)
        noise = np.empty((n, size, size))
        for i, digit in enumerate(labels):
            # rotation, scale, shear, shift (x, y)
            draws[i, :5] = [rng.uniform(-0.20, 0.20), rng.uniform(0.85, 1.10),
                            rng.uniform(-0.18, 0.18), rng.uniform(-0.05, 0.05),
                            rng.uniform(-0.05, 0.05)]
            count = len(DIGIT_SEGMENTS[digit])
            jitter[i, :count] = rng.normal(0, 0.018, size=(count, 2, 2))
            jitter[i, count:] = jitter[i, 0]   # padding repeats segment 0
            # thickness, blur sigma, then a heterogeneous per-image noise
            # level. MNIST backgrounds are nearly clean, but MNIST's *data
            # manifold* is far richer than a seven-segment renderer's, which
            # spreads MagNet's clean reconstruction scores over a wide
            # range.  Sampling the noise level per image reproduces that
            # spread — and hence the same *relative* detector headroom over
            # typical clean images that the paper's kappa sweeps rely on
            # (see DESIGN.md §2).
            draws[i, 5:] = [rng.uniform(0.034, 0.060), rng.uniform(0.35, 0.75),
                            rng.uniform(0.02, 0.075)]
            noise[i] = rng.normal(0.0, draws[i, 7], size=(size, size))
        rotation, scale, shear, shift_x, shift_y, thickness, blur_sigma, _ = draws.T
        points = affine_points(segments.reshape(n, -1, 2), rotation, scale, shear,
                               (shift_x, shift_y))
        segments = points.reshape(segments.shape) + jitter

    image = gaussian_blur(render_strokes(segments, size, thickness), blur_sigma)
    # Renormalize so strokes saturate like MNIST's ink does.
    peak = image.max(axis=(1, 2), keepdims=True)
    image = np.where(peak > 1e-6,
                     np.clip(image / np.maximum(peak, np.float32(0.75)), 0.0, 1.0),
                     image)
    if not clean:
        image = np.clip(image + noise, 0.0, 1.0).astype(np.float32)
    return image[:, None]


def render_digit(digit: int, rng: np.random.Generator,
                 size: int = IMAGE_SIZE, clean: bool = False) -> np.ndarray:
    """Render one digit as a (1, size, size) float32 image in [0, 1].

    ``clean=True`` disables all randomness (canonical glyph) — useful for
    tests and for the Figure-1 gallery's reference row.
    """
    digit_skeleton(digit)  # rejects a non-digit
    return _render_digits(np.array([digit]), rng, size, clean=clean)[0]


def generate_digits(n: int, seed: int = 0, size: int = IMAGE_SIZE) -> Dataset:
    """Generate a class-balanced SyntheticDigits dataset of ``n`` images."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = rng_from_seed(seed)
    labels = np.arange(n) % NUM_CLASSES
    rng.shuffle(labels)
    images = render_chunks(lambda chunk: _render_digits(chunk, rng, size),
                           labels, (1, size, size))
    return Dataset(images, labels, name="synthetic_digits")


def load_digit_splits(n_train: int = 3000, n_val: int = 600, n_test: int = 1500,
                      seed: int = 0) -> DataSplits:
    """Generate disjoint train/val/test SyntheticDigits splits.

    The splits use independent RNG streams derived from ``seed``, so they
    are disjoint samples of the same generative process — the synthetic
    analogue of MNIST's train/test division.
    """
    return DataSplits(
        train=generate_digits(n_train, seed=seed * 3 + 1),
        val=generate_digits(n_val, seed=seed * 3 + 2),
        test=generate_digits(n_test, seed=seed * 3 + 3),
        name="synthetic_digits",
    )
