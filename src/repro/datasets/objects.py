"""SyntheticObjects — the offline stand-in for CIFAR-10.

32x32 RGB scenes: one of ten parametric object classes (shapes, stripe
patterns, multi-blob scenes) drawn in a class-correlated but noisy color
over a textured background.  By construction this task is *harder* than
SyntheticDigits — textured backgrounds raise the reconstruction noise
floor of MagNet's autoencoders and lower classifier accuracy — matching
the MNIST-vs-CIFAR difficulty ordering the paper's experiments exploit.

Scenes are rendered :data:`~repro.datasets.rendering.CHUNK` at a time:
each image's RNG draws are made in stream order, then the chunk's shape
masks (one call per shape family), textures, blur and noise are computed
in a few numpy calls.  :func:`render_object` is that path for one image.
"""

from __future__ import annotations

import colorsys
import numpy as np

from repro.datasets.base import Dataset, DataSplits
from repro.datasets.rendering import (
    gaussian_blur,
    pixel_grid,
    render_chunks,
    soft_mask,
    value_noise,
)
from repro.utils.rng import rng_from_seed

IMAGE_SIZE = 32
NUM_CLASSES = 10

CLASS_NAMES = (
    "disc", "square", "triangle", "ring", "cross",
    "hstripes", "vstripes", "checker", "diagonal", "blobs",
)

# Base hue per class (class-correlated color, like CIFAR's sky/grass priors).
_CLASS_HUES = np.linspace(0.0, 0.9, NUM_CLASSES)


def _hsv_to_rgb(h: float, s: float, v: float) -> np.ndarray:
    return np.array(colorsys.hsv_to_rgb(h % 1.0, s, v), dtype=np.float32)


def _draw_shape(name: str, rng: np.random.Generator) -> list:
    """One image's shape parameters, drawn in the generator's stream order.

    Centre (cx, cy) and radius come first for every family, then the
    family's own: see :func:`_shape_masks` for what each one means.
    """
    params = [rng.uniform(0.35, 0.65), rng.uniform(0.35, 0.65), rng.uniform(0.18, 0.30)]
    if name == "square":
        params.append(rng.uniform(-0.4, 0.4))
    elif name == "triangle":
        params.append(rng.uniform(0, 2 * np.pi))
    elif name == "ring":
        params.append(rng.uniform(0.28, 0.42))
    elif name == "cross":
        params += [rng.uniform(-0.3, 0.3), rng.uniform(0.30, 0.42)]
    elif name in ("hstripes", "vstripes"):
        params += [rng.integers(3, 6), rng.uniform(0, 2 * np.pi)]
    elif name == "checker":
        params += [rng.integers(2, 5), *rng.uniform(0, 2 * np.pi, size=2)]
    elif name == "diagonal":
        params += [rng.uniform(np.pi / 6, np.pi / 3) * rng.choice([-1.0, 1.0]),
                   rng.uniform(0.10, 0.18)]
    elif name == "blobs":
        for _ in range(3):
            params += [*rng.uniform(0.2, 0.8, size=2), rng.uniform(0.08, 0.16)]
    return params


def _shape_masks(name: str, params: np.ndarray, size: int) -> np.ndarray:
    """Soft foreground masks (B, size, size) in [0,1] for one shape family.

    ``params`` is (B, k): one :func:`_draw_shape` row per image.
    """
    px, py = pixel_grid(size)
    cx, cy, radius, *extra = params.T[:, :, None, None]
    edge = 2.0 / size

    if name == "disc":
        sd = np.hypot(px - cx, py - cy) - radius
        return soft_mask(sd, edge)
    if name == "square":
        (angle,) = extra
        ux = np.cos(angle) * (px - cx) + np.sin(angle) * (py - cy)
        uy = -np.sin(angle) * (px - cx) + np.cos(angle) * (py - cy)
        sd = np.maximum(np.abs(ux), np.abs(uy)) - radius
        return soft_mask(sd, edge)
    if name == "triangle":
        # Equilateral-ish triangle via three half-plane constraints.
        (angle,) = extra
        sd = np.full(angle.shape[:1] + px.shape, -np.inf)
        for k in range(3):
            theta = angle + 2 * np.pi * k / 3
            nx, ny = np.cos(theta), np.sin(theta)
            plane = nx * (px - cx) + ny * (py - cy) - radius * 0.75
            sd = np.maximum(sd, plane)
        return soft_mask(sd, edge)
    if name == "ring":
        r = np.hypot(px - cx, py - cy)
        width = radius * extra[0]
        sd = np.abs(r - radius) - width
        return soft_mask(sd, edge)
    if name == "cross":
        angle, arm_frac = extra
        ux = np.cos(angle) * (px - cx) + np.sin(angle) * (py - cy)
        uy = -np.sin(angle) * (px - cx) + np.cos(angle) * (py - cy)
        arm = radius * arm_frac
        bar1 = np.maximum(np.abs(ux) - radius, np.abs(uy) - arm)
        bar2 = np.maximum(np.abs(uy) - radius, np.abs(ux) - arm)
        sd = np.minimum(bar1, bar2)
        return soft_mask(sd, edge)
    if name in ("hstripes", "vstripes"):
        freq, phase = extra
        axis = py if name == "hstripes" else px
        return (0.5 + 0.5 * np.sin(2 * np.pi * freq * axis + phase)).astype(np.float32)
    if name == "checker":
        freq, phase_x, phase_y = extra
        wave = (np.sin(2 * np.pi * freq * px + phase_x)
                * np.sin(2 * np.pi * freq * py + phase_y))
        return (0.5 + 0.5 * np.sign(wave) * np.minimum(np.abs(wave) * 3, 1)).astype(np.float32)
    if name == "diagonal":
        angle, width = extra
        nx, ny = np.sin(angle), np.cos(angle)
        sd = np.abs(nx * (px - cx) + ny * (py - cy)) - width
        return soft_mask(sd, edge)
    if name == "blobs":
        sd = np.full(cx.shape[:1] + px.shape, np.inf)
        for bx, by, br in zip(extra[0::3], extra[1::3], extra[2::3]):
            sd = np.minimum(sd, np.hypot(px - bx, py - by) - br)
        return soft_mask(sd, edge)
    raise ValueError(f"unknown shape {name!r}")  # pragma: no cover


def _render_objects(labels: np.ndarray, rng: np.random.Generator,
                    size: int) -> np.ndarray:
    """Render ``labels`` as (B, 3, size, size) float32 scenes in [0, 1].

    A first pass makes every RNG draw image by image, in the order one
    image at a time would; the second renders the whole batch at once
    (the masks one shape family at a time).
    """
    n = len(labels)
    shapes = []
    colors = np.empty((n, 2, 3), dtype=np.float32)   # foreground, background
    # perlin_like_texture's grids: 3 background octaves, then 2 foreground.
    grids = [np.empty((n, 4 << k, 4 << k)) for k in (0, 1, 2, 0, 1)]
    scalars = np.empty((n, 2))                        # blur sigma, noise level
    noise = np.empty((n, 3, size, size))
    for i, cls in enumerate(labels):
        shapes.append(_draw_shape(CLASS_NAMES[cls], rng))
        fg_hue = _CLASS_HUES[cls] + rng.normal(0, 0.05)
        colors[i, 0] = _hsv_to_rgb(fg_hue, rng.uniform(0.55, 0.95), rng.uniform(0.65, 1.0))
        bg_hue = fg_hue + rng.uniform(0.3, 0.7)
        colors[i, 1] = _hsv_to_rgb(bg_hue, rng.uniform(0.1, 0.45), rng.uniform(0.25, 0.75))
        for grid in grids:
            grid[i] = rng.random(grid.shape[1:])
        # Heterogeneous per-image noise, for the same detector-headroom
        # reasons as SyntheticDigits (see repro.datasets.digits).
        scalars[i] = rng.uniform(0.2, 0.5), rng.uniform(0.01, 0.06)
        noise[i] = rng.normal(0.0, scalars[i, 1], size=(3, size, size))

    mask = np.empty((n, size, size), dtype=np.float32)
    for cls in np.unique(labels):
        rows = np.flatnonzero(labels == cls)
        mask[rows] = _shape_masks(CLASS_NAMES[cls], np.array([shapes[i] for i in rows]), size)
    fg, bg = colors[:, 0, :, None, None], colors[:, 1, :, None, None]
    texture = value_noise(grids[:3], size)
    bg_field = bg * (0.7 + 0.5 * texture)[:, None]
    fg_texture = 0.85 + 0.3 * value_noise(grids[3:], size)
    fg_field = fg * fg_texture[:, None]

    image = bg_field * (1.0 - mask[:, None]) + fg_field * mask[:, None]
    image = np.clip(image, 0.0, 1.0)
    image = gaussian_blur(image, scalars[:, 0])
    return np.clip(image + noise, 0.0, 1.0).astype(np.float32)


def render_object(cls: int, rng: np.random.Generator,
                  size: int = IMAGE_SIZE) -> np.ndarray:
    """Render one object scene as a (3, size, size) float32 image in [0, 1]."""
    if not 0 <= cls < NUM_CLASSES:
        raise ValueError(f"class must be 0-{NUM_CLASSES - 1}, got {cls}")
    return _render_objects(np.array([cls]), rng, size)[0]


def generate_objects(n: int, seed: int = 0, size: int = IMAGE_SIZE) -> Dataset:
    """Generate a class-balanced SyntheticObjects dataset of ``n`` images."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = rng_from_seed(seed)
    labels = np.arange(n) % NUM_CLASSES
    rng.shuffle(labels)
    images = render_chunks(lambda chunk: _render_objects(chunk, rng, size),
                           labels, (3, size, size))
    return Dataset(images, labels, name="synthetic_objects")


def load_object_splits(n_train: int = 2500, n_val: int = 600, n_test: int = 1200,
                       seed: int = 0) -> DataSplits:
    """Generate disjoint train/val/test SyntheticObjects splits."""
    return DataSplits(
        train=generate_objects(n_train, seed=seed * 3 + 11),
        val=generate_objects(n_val, seed=seed * 3 + 12),
        test=generate_objects(n_test, seed=seed * 3 + 13),
        name="synthetic_objects",
    )
