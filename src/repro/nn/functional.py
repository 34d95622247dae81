"""Neural-network operations built on the autograd engine.

Contains the structured ops the MagNet/EAD reproduction needs beyond basic
arithmetic: convolutions (on the kernels of :mod:`repro.nn.backend`) and
pooling, nearest-neighbour upsampling (the MagNet decoder uses it),
softmax / log-softmax (for classifier probabilities and the JSD
detector), and the label-gather used by the cross-entropy loss.

``conv2d`` validates its arguments, runs the conv kernel named by its
``conv_kernel`` argument (a :class:`~repro.nn.layers.Conv2D` passes its
own), meters the dispatch, and wires the kernel's forward/backward
primitives into the autograd graph.

All ops follow the NCHW layout convention: images are
``(batch, channels, height, width)``.
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np

from repro.nn.autograd import Tensor, _make, as_tensor, is_grad_enabled
from repro.nn.backend import KERNELS, record_dispatch

__all__ = [
    "avg_pool2d",
    "conv2d",
    "conv_output_size",
    "log_softmax",
    "logsumexp",
    "max_pool2d",
    "one_hot",
    "same_padding",
    "select_index",
    "softmax",
    "upsample2d",
]


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------

def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis.

    Raises :class:`ValueError` when the (effective) kernel overhangs the
    padded input — the historical behaviour of silently returning a zero
    or negative size produced empty arrays or wrong-shaped scatter
    targets far from the misconfiguration that caused them.
    """
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution output size would be {out}: kernel {kernel} "
            f"does not fit in padded input {size + 2 * padding} "
            f"(size {size}, padding {padding}, stride {stride})"
        )
    return out


def same_padding(kernel: int) -> int:
    """Padding that preserves spatial size for stride-1 odd kernels."""
    if kernel % 2 == 0:
        raise ValueError(f"'same' padding requires an odd kernel, got {kernel}")
    return (kernel - 1) // 2


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: Union[int, str] = 0,
           dilation: int = 1, conv_kernel: str = "numpy") -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Args:
        x: input images ``(N, C_in, H, W)``.
        weight: filters ``(C_out, C_in, kh, kw)``.
        bias: optional per-filter bias ``(C_out,)``.
        stride: spatial stride (same in both axes).
        padding: integer zero-padding, or ``"same"`` for stride-1 odd kernels.
        dilation: spacing between kernel taps (atrous convolution).
        conv_kernel: name of the conv kernel in
            :data:`repro.nn.backend.KERNELS` (``"numpy"``, the bitwise
            reference, or ``"fft"``).

    Returns:
        Output tensor ``(N, C_out, Ho, Wo)``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d expects OIHW weight, got shape {weight.shape}")
    co, ci, kh, kw = weight.shape
    if x.shape[1] != ci:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {ci}")
    dilation = int(dilation)
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    eff_kh = (kh - 1) * dilation + 1
    eff_kw = (kw - 1) * dilation + 1
    if padding == "same":
        if stride != 1:
            raise ValueError("'same' padding supported for stride=1 only")
        padding = same_padding(eff_kh)
    padding = int(padding)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    # Raises a clear ValueError when the kernel overhangs the padded input.
    conv_output_size(x.shape[2], eff_kh, stride, padding)
    conv_output_size(x.shape[3], eff_kw, stride, padding)

    be = KERNELS[conv_kernel]
    t0 = time.perf_counter()
    out, ctx = be.conv2d_forward(
        x.data, weight.data, bias.data if bias is not None else None,
        stride, padding, dilation, needs_grad=is_grad_enabled())
    record_dispatch(be.name, time.perf_counter() - t0)

    def grad_x(g):
        t0 = time.perf_counter()
        gx = be.conv2d_backward_input(ctx, g)
        record_dispatch(be.name, time.perf_counter() - t0)
        return gx

    def grad_w(g):
        t0 = time.perf_counter()
        gw = be.conv2d_backward_weight(ctx, g)
        record_dispatch(be.name, time.perf_counter() - t0)
        return gw

    parents = [(x, grad_x), (weight, grad_w)]
    if bias is not None:
        parents.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return _make(out, parents)


# ----------------------------------------------------------------------
# Pooling and upsampling
# ----------------------------------------------------------------------

def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping average pooling with ``kernel``×``kernel`` windows.

    Input spatial dims must be divisible by ``kernel`` (MagNet's MNIST
    autoencoders pool 28→14, which satisfies this).
    """
    x = as_tensor(x)
    n, c, h, w = x.shape
    k = int(kernel)
    if h % k or w % k:
        raise ValueError(f"avg_pool2d: spatial dims ({h},{w}) not divisible by {k}")
    out = x.data.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def grad_fn(g):
        g_scaled = (g / (k * k)).astype(x.dtype)
        return np.repeat(np.repeat(g_scaled, k, axis=2), k, axis=3)

    return _make(out.astype(x.dtype), [(x, grad_fn)])


def max_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping max pooling; gradient routes to the first argmax."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    k = int(kernel)
    if h % k or w % k:
        raise ValueError(f"max_pool2d: spatial dims ({h},{w}) not divisible by {k}")
    blocks = x.data.reshape(n, c, h // k, k, w // k, k)
    # Pairwise maximum over the k*k taps (strided views, no copies) —
    # much faster than a strided-axis ``.max()`` reduction or the
    # transpose+argmax route, and bitwise-identical to both.
    taps = [blocks[:, :, :, i, :, j] for i in range(k) for j in range(k)]
    if len(taps) == 1:
        out = taps[0].copy()
    else:
        out = np.maximum(taps[0], taps[1])
        for tap in taps[2:]:
            np.maximum(out, tap, out=out)

    def grad_fn(g):
        # Route the gradient to the first maximum tap in (i, j) row-major
        # order — the same winner the flat argmax picked — by comparing
        # taps sequentially against the pooled maximum.  No argmax, no
        # transposed copies.
        gx = np.zeros((n, c, h, w), dtype=g.dtype)
        gblocks = gx.reshape(n, c, h // k, k, w // k, k)
        taken = np.zeros(out.shape, dtype=bool)
        for i in range(k):
            for j in range(k):
                win = (blocks[:, :, :, i, :, j] == out) & ~taken
                np.copyto(gblocks[:, :, :, i, :, j], g, where=win)
                taken |= win
        return gx

    return _make(out.astype(x.dtype), [(x, grad_fn)])


def upsample2d(x: Tensor, factor: int) -> Tensor:
    """Nearest-neighbour spatial upsampling by an integer factor."""
    x = as_tensor(x)
    f = int(factor)
    if f < 1:
        raise ValueError(f"upsample factor must be >= 1, got {factor}")
    if f == 1:
        return x
    n, c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, f, axis=2), f, axis=3)

    def grad_fn(g):
        return g.reshape(n, c, h, f, w, f).sum(axis=(3, 5))

    return _make(out, [(x, grad_fn)])


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------

def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp along ``axis``."""
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - m
    s = np.exp(shifted).sum(axis=axis, keepdims=True)
    out = m + np.log(s)
    softmax_vals = np.exp(shifted) / s

    def grad_fn(g):
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return g_expanded * softmax_vals

    data = out if keepdims else np.squeeze(out, axis=axis)
    return _make(data.astype(x.dtype), [(x, grad_fn)])


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) along ``axis``, computed stably."""
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def grad_fn(g):
        return g - probs * g.sum(axis=axis, keepdims=True)

    return _make(out.astype(x.dtype), [(x, grad_fn)])


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """softmax(x) along ``axis``, computed stably."""
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return _make(out.astype(x.dtype), [(x, grad_fn)])


# ----------------------------------------------------------------------
# Indexing helpers
# ----------------------------------------------------------------------

def select_index(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather ``x[i, indices[i]]`` for each row i of a 2-D tensor.

    Used by cross-entropy (pick the true-class log-probability) and by the
    attack losses (pick the target-class logit).
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"select_index expects a 2-D tensor, got shape {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (x.shape[0],):
        raise ValueError(f"indices shape {idx.shape} != ({x.shape[0]},)")
    rows = np.arange(x.shape[0])
    out = x.data[rows, idx]

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[rows, idx] = g
        return gx

    return _make(out.astype(x.dtype), [(x, grad_fn)])


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """Return a one-hot ndarray encoding (plain numpy; labels carry no grad)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for num_classes")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1
    return out
