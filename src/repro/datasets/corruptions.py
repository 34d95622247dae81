"""Common image corruptions for robustness evaluation.

Adversarial robustness (the paper's subject) and corruption robustness
are complementary axes; a downstream user evaluating MagNet-style
defenses typically reports both.  These corruptions follow the
Hendrycks & Dietterich (2019) families that make sense at 28-32 px:
Gaussian noise, blur, contrast reduction, brightness shift, pixelation
and occlusion — each with a 1-5 severity scale.  All are numpy only;
the blur is :func:`repro.datasets.rendering.gaussian_blur`, bitwise equal
to ``scipy.ndimage.gaussian_filter`` on the spatial axes.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from repro.datasets import rendering
from repro.utils.rng import rng_from_seed

CorruptionFn = Callable[[np.ndarray, int, np.random.Generator], np.ndarray]


def _check(x: np.ndarray, severity: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"expected NCHW images, got shape {x.shape}")
    if not 1 <= severity <= 5:
        raise ValueError(f"severity must be 1-5, got {severity}")
    return x


def gaussian_noise(x: np.ndarray, severity: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise; sigma grows with severity."""
    x = _check(x, severity)
    sigma = [0.04, 0.08, 0.12, 0.18, 0.26][severity - 1]
    return np.clip(x + rng.normal(0, sigma, x.shape), 0, 1).astype(np.float32)


def gaussian_blur(x: np.ndarray, severity: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Isotropic blur of the spatial axes (the datasets' numpy blur)."""
    x = _check(x, severity)
    sigma = [0.4, 0.7, 1.0, 1.5, 2.0][severity - 1]
    return rendering.gaussian_blur(x, sigma)


def contrast(x: np.ndarray, severity: int,
             rng: np.random.Generator) -> np.ndarray:
    """Compress pixel values toward the per-image mean."""
    x = _check(x, severity)
    factor = [0.75, 0.6, 0.45, 0.3, 0.2][severity - 1]
    mean = x.mean(axis=(2, 3), keepdims=True)
    return np.clip((x - mean) * factor + mean, 0, 1).astype(np.float32)


def brightness(x: np.ndarray, severity: int,
               rng: np.random.Generator) -> np.ndarray:
    """Additive brightness shift (sign alternates per image)."""
    x = _check(x, severity)
    shift = [0.05, 0.1, 0.15, 0.22, 0.3][severity - 1]
    signs = rng.choice([-1.0, 1.0], size=(x.shape[0], 1, 1, 1))
    return np.clip(x + shift * signs, 0, 1).astype(np.float32)


def pixelate(x: np.ndarray, severity: int,
             rng: np.random.Generator) -> np.ndarray:
    """Downsample then nearest-neighbour upsample."""
    x = _check(x, severity)
    factor = [1, 2, 2, 4, 4][severity - 1]
    if factor == 1:
        return x
    n, c, h, w = x.shape
    if h % factor or w % factor:
        raise ValueError(f"spatial dims ({h},{w}) not divisible by {factor}")
    small = x.reshape(n, c, h // factor, factor, w // factor, factor
                      ).mean(axis=(3, 5))
    return np.repeat(np.repeat(small, factor, axis=2), factor,
                     axis=3).astype(np.float32)


def occlusion(x: np.ndarray, severity: int,
              rng: np.random.Generator) -> np.ndarray:
    """Zero out a random square patch per image."""
    x = _check(x, severity).copy()
    n, c, h, w = x.shape
    frac = [0.1, 0.15, 0.2, 0.3, 0.4][severity - 1]
    size = max(1, int(min(h, w) * frac))
    for i in range(n):
        top = rng.integers(0, h - size + 1)
        left = rng.integers(0, w - size + 1)
        x[i, :, top:top + size, left:left + size] = 0.0
    return x


CORRUPTIONS: Dict[str, CorruptionFn] = {
    "gaussian_noise": gaussian_noise,
    "gaussian_blur": gaussian_blur,
    "contrast": contrast,
    "brightness": brightness,
    "pixelate": pixelate,
    "occlusion": occlusion,
}


def corrupt(x: np.ndarray, corruption: str, severity: int,
            seed: int = 0) -> np.ndarray:
    """Apply a named corruption at the given severity (deterministic)."""
    if corruption not in CORRUPTIONS:
        raise KeyError(f"unknown corruption {corruption!r}; "
                       f"available: {sorted(CORRUPTIONS)}")
    rng = rng_from_seed(seed)
    return CORRUPTIONS[corruption](x, severity, rng)


def robustness_curve(model, x: np.ndarray, y: np.ndarray, corruption: str,
                     severities: Sequence[int] = (1, 2, 3, 4, 5),
                     seed: int = 0) -> Dict[int, float]:
    """Accuracy of ``model`` under one corruption across severities."""
    from repro.nn.training import accuracy

    return {
        int(s): accuracy(model, corrupt(x, corruption, s, seed=seed + s), y)
        for s in severities
    }
