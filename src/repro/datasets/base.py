"""Dataset containers and split utilities.

All images in the library are float32 NCHW arrays with pixel values in
``[0, 1]`` — exactly the normalized space the paper's attacks operate in
(the box constraint of EAD's eq. (1) is ``x ∈ [0, 1]^p``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np


@dataclasses.dataclass
class Dataset:
    """A labelled image set: ``x`` is (N, C, H, W) float32 in [0,1], ``y`` is (N,) int64."""

    x: np.ndarray
    y: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float32)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 4:
            raise ValueError(f"x must be NCHW, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError(f"y shape {self.y.shape} != ({self.x.shape[0]},)")
        lo, hi = float(self.x.min(initial=0.0)), float(self.x.max(initial=0.0))
        if lo < -1e-6 or hi > 1 + 1e-6:
            raise ValueError(f"pixel values outside [0,1]: [{lo}, {hi}]")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return tuple(self.x.shape[1:])

    @property
    def num_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0

    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "Dataset":
        """Return a new Dataset restricted to ``indices``."""
        idx = np.asarray(indices)
        return Dataset(self.x[idx], self.y[idx], name=name or self.name)

    def take(self, n: int) -> "Dataset":
        """Return the first ``n`` examples."""
        return self.subset(np.arange(min(n, len(self))))

    def shuffled(self, rng: np.random.Generator) -> "Dataset":
        """Return a shuffled copy."""
        order = rng.permutation(len(self))
        return self.subset(order)


_PARTS = ("train", "val", "test")


@dataclasses.dataclass
class DataSplits:
    """Train / validation / test splits of one synthetic dataset.

    The validation split calibrates MagNet's detector thresholds (the
    paper fixes the false-positive rate on clean validation data); the
    test split supplies both clean-accuracy numbers and attack seeds.
    """

    train: Dataset
    val: Dataset
    test: Dataset
    name: str = "splits"

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return self.train.image_shape

    @property
    def num_classes(self) -> int:
        return max(self.train.num_classes, self.val.num_classes, self.test.num_classes)

    def summary(self) -> str:
        c, h, w = self.image_shape
        return (f"{self.name}: {len(self.train)} train / {len(self.val)} val / "
                f"{len(self.test)} test, {c}x{h}x{w}, {self.num_classes} classes")

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flat name -> ndarray form (names as 0-d str arrays) for a store."""
        arrays = {"name": np.array(self.name)}
        for part in _PARTS:
            ds = getattr(self, part)
            arrays.update({f"{part}_x": ds.x, f"{part}_y": ds.y,
                           f"{part}_name": np.array(ds.name)})
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "DataSplits":
        """Inverse of :meth:`to_arrays`; pixels and labels come back bitwise."""
        parts = {part: Dataset(arrays[f"{part}_x"], arrays[f"{part}_y"],
                               name=str(arrays[f"{part}_name"]))
                 for part in _PARTS}
        return cls(**parts, name=str(arrays["name"]))


def stratified_indices(labels: np.ndarray, per_class: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Pick ``per_class`` indices of each label value, shuffled together."""
    labels = np.asarray(labels)
    chosen = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < per_class:
            raise ValueError(f"class {cls} has only {len(idx)} examples < {per_class}")
        chosen.append(rng.choice(idx, size=per_class, replace=False))
    out = np.concatenate(chosen)
    rng.shuffle(out)
    return out
