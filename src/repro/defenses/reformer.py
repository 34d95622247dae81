"""MagNet's reformer: project inputs onto the learned data manifold.

The reformer is simply the trained autoencoder applied as a preprocessor:
examples close to the manifold are approximately unchanged, while small
adversarial perturbations are (ideally) absorbed by the projection, so
the downstream classifier sees a rectified image.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Module
from repro.nn.training import predict_logits


def clip_pixels(recon: np.ndarray) -> np.ndarray:
    """Clip a reconstruction into the valid pixel box, as float32."""
    return np.clip(recon, 0.0, 1.0).astype(np.float32)


class Reformer:
    """Autoencoder-based input rectifier."""

    def __init__(self, autoencoder: Module):
        self.autoencoder = autoencoder

    def reform(self, x: np.ndarray) -> np.ndarray:
        """Return AE(x), clipped into the valid pixel box."""
        x = np.asarray(x, dtype=np.float32)
        if x.shape[0] == 0:
            return x.copy()
        return clip_pixels(predict_logits(self.autoencoder, x))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.reform(x)
