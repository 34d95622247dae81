"""The conv kernels behind :func:`repro.nn.functional.conv2d`.

EAD's L1 attack and MagNet's autoencoder training both bottom out in 2-D
convolutions.  Two kernels implement them, each a stateless singleton in
:data:`KERNELS`:

``"numpy"``
    The reference im2col path (the default).  Bitwise-stable: its outputs
    define the ground truth the other kernel is checked against.
``"fft"``
    Frequency-domain convolution via ``scipy.fft`` (falls back to
    ``numpy.fft`` with a float64 round-trip when scipy is absent).  Wins
    when channel counts are large — the ``paper`` profile's 256-filter
    autoencoders — because the per-pixel contraction collapses into a
    batched complex matmul over O(H·W) frequencies instead of an
    O(H·W·k²) im2col gather.  Tolerance-matched, not bitwise (see
    :attr:`FFTBackend.rtol`/:attr:`FFTBackend.atol`).

The kernel is a property of the model: every
:class:`~repro.nn.layers.Conv2D` carries the name of its kernel (set for
a whole model by :func:`~repro.nn.layers.set_conv_kernel`, which the
model zoo applies from the profile's ``nn_backend``), and ``conv2d``
reads only that.  A pickled or forked model therefore runs the same
kernel in every process.  Pooling and elementwise ops have one
implementation and live in :mod:`repro.nn.functional` /
:mod:`repro.nn.autograd`.

Every conv dispatch is metered through :mod:`repro.obs`
(``nn/conv_dispatches`` counters and per-kernel ``nn/kernel_seconds``
histograms); :func:`flush_kernel_events` folds the deltas into the
telemetry JSONL so ``repro-experiments timings`` can attribute conv time.
"""

from __future__ import annotations

import functools
import threading
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "FFTBackend",
    "KERNELS",
    "NumpyBackend",
    "check_kernel",
    "flush_kernel_events",
    "kernel_stats",
    "record_dispatch",
]


# ----------------------------------------------------------------------
# Dispatch metering
# ----------------------------------------------------------------------
# ``repro.nn`` sits at the bottom of the import graph and ``repro.obs``
# (the package) transitively reaches ``repro.runtime``, so the metric
# handles bind lazily at the first dispatch — long after import time —
# instead of at module load.

_METRICS_BY_KERNEL: Dict[str, Tuple[Any, Any, Any]] = {}
_LAST_FLUSH: Dict[str, Tuple[int, float]] = {}
_METRICS_LOCK = threading.Lock()


def _kernel_metrics(name: str) -> Tuple[Any, Any, Any]:
    cached = _METRICS_BY_KERNEL.get(name)
    if cached is None:
        from repro.obs.metrics import counter, histogram
        with _METRICS_LOCK:
            cached = _METRICS_BY_KERNEL.get(name)
            if cached is None:
                cached = (counter("nn/conv_dispatches"),
                          counter(f"nn/conv_dispatches/{name}"),
                          histogram(f"nn/kernel_seconds/{name}"))
                _METRICS_BY_KERNEL[name] = cached
    return cached


def record_dispatch(kernel_name: str, seconds: float) -> None:
    """Meter one conv dispatch (forward or backward) on a kernel."""
    total, dispatches, seconds_hist = _kernel_metrics(kernel_name)
    total.inc()
    dispatches.inc()
    seconds_hist.observe(seconds)


def kernel_stats() -> Dict[str, Dict[str, float]]:
    """Cumulative ``{kernel: {dispatches, seconds}}`` for this process."""
    stats: Dict[str, Dict[str, float]] = {}
    for name, (_, dispatches, seconds_hist) in sorted(
            _METRICS_BY_KERNEL.items()):
        snap = seconds_hist.snapshot()
        stats[name] = {"dispatches": dispatches.value,
                       "seconds": snap["sum"]}
    return stats


def flush_kernel_events() -> None:
    """Emit per-kernel ``nn/kernels/<name>`` telemetry for new dispatches.

    Called at the natural kernel-burst boundaries (end of a training fit,
    end of an attack) so the JSONL event log — and therefore the
    ``timings`` report — shows where conv time went without paying a
    telemetry write per dispatch.  Deltas since the previous flush, so
    repeated calls never double-count.
    """
    from repro.obs.trace import event    # deferred: avoids an import cycle
    for name, stat in kernel_stats().items():
        count, seconds = int(stat["dispatches"]), float(stat["seconds"])
        last_count, last_seconds = _LAST_FLUSH.get(name, (0, 0.0))
        if count <= last_count:
            continue
        _LAST_FLUSH[name] = (count, seconds)
        event(f"nn/kernels/{name}", duration_s=seconds - last_seconds,
              kernel=name, dispatches=count - last_count)


# ----------------------------------------------------------------------
# The kernels
# ----------------------------------------------------------------------
# Both kernels implement the conv trio behind ``conv2d``:
#
# * ``conv2d_forward(x, weight, bias, stride, padding, dilation,
#   needs_grad) -> (out, ctx)`` — ``x`` is NCHW *unpadded*; ``out`` is the
#   finished NCHW output (bias included).  ``ctx`` is an opaque handle
#   threaded to the backward methods; when ``needs_grad`` is false the
#   backward methods will never be called on it.
# * ``conv2d_backward_input(ctx, g) -> gx`` — gradient w.r.t. the
#   original (unpadded) input.
# * ``conv2d_backward_weight(ctx, g) -> gw`` — gradient w.r.t. the OIHW
#   weight.
#
# Returned arrays match the input dtype and are C-contiguous.  ``bitwise``
# declares the equivalence contract against the numpy reference: exact,
# or within the declared ``rtol``/``atol`` (checked by the gradcheck
# equivalence matrix and by ``tests/nn/test_backend.py``).

def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    if not padding:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding),
                      (padding, padding)))


def _to_nchw(nhwc: np.ndarray, dtype: np.dtype) -> np.ndarray:
    return np.ascontiguousarray(nhwc.transpose(0, 3, 1, 2), dtype=dtype)


#: Conv geometries whose im2col index :class:`NumpyBackend` keeps.
#: perfbench's table1 (both datasets' classifiers and autoencoders)
#: uses 7.
IM2COL_CACHE_SIZE = 32


@functools.lru_cache(maxsize=IM2COL_CACHE_SIZE)
def _im2col_index(ci: int, hp: int, wp: int, kh: int, kw: int, stride: int,
                  dilation: int) -> np.ndarray:
    """Flat positions in an ``(Hp, Wp, C)`` image of every column entry.

    Element ``(y, x, c, i, j)`` of the ``(Ho, Wo, C, kh, kw)`` column
    block of one image reads padded pixel ``(y·stride + i·dilation,
    x·stride + j·dilation)``, channel ``c``.  The index depends only on
    the geometry — never on the batch size or dtype — and is read-only
    because every caller shares it.
    """
    ho = (hp - (kh - 1) * dilation - 1) // stride + 1
    wo = (wp - (kw - 1) * dilation - 1) // stride + 1
    rows = stride * np.arange(ho)[:, None] + dilation * np.arange(kh)
    cols = stride * np.arange(wo)[:, None] + dilation * np.arange(kw)
    index = ((rows[:, None, None, :, None] * wp
              + cols[None, :, None, None, :]) * ci
             + np.arange(ci)[None, None, :, None, None])
    index = index.astype(np.intp).ravel()
    index.flags.writeable = False
    return index


class NumpyBackend:
    """The reference im2col conv — the bitwise ground truth."""

    name = "numpy"
    #: True when outputs are bit-for-bit identical to the numpy reference.
    bitwise = True
    #: Equivalence bounds vs the numpy reference (0.0 means exact).
    rtol = 0.0
    atol = 0.0

    def col2im(self, cols: np.ndarray, x_shape: Tuple[int, ...], kh: int,
               kw: int, stride: int, dilation: int = 1) -> np.ndarray:
        """Scatter-add window gradients back to image shape (im2col inverse).

        Accumulates in NHWC (both sides of the ``+=`` keep their natural
        layout, no per-tap transposes) and converts to NCHW once at the
        end.
        """
        n, c, h, w = x_shape
        ho, wo = cols.shape[1], cols.shape[2]
        out = np.zeros((n, h, w, c), dtype=cols.dtype)
        for i in range(kh):
            row = i * dilation
            h_stop = row + stride * ho
            for j in range(kw):
                col = j * dilation
                w_stop = col + stride * wo
                out[:, row:h_stop:stride, col:w_stop:stride, :] += (
                    cols[:, :, :, :, i, j]
                )
        return _to_nchw(out, cols.dtype)

    def conv2d_forward(self, x: np.ndarray, weight: np.ndarray,
                       bias: Optional[np.ndarray], stride: int, padding: int,
                       dilation: int, needs_grad: bool
                       ) -> Tuple[np.ndarray, Any]:
        """im2col + one GEMM, gathered channels-last in one ``np.take``.

        The input is padded and moved to NHWC in one copy; one
        ``np.take`` along the flattened ``Hp·Wp·C`` axis then fills the
        ``(N, Ho, Wo, C, kh, kw)`` column buffer through the cached
        index of :func:`_im2col_index` (``Ho·Wo·C·kh·kw·8`` bytes per
        geometry).  ``conv2d`` has already checked that the (dilated)
        kernel fits the padded input.
        """
        co, ci, kh, kw = weight.shape
        n, _, h, w = x.shape
        hp, wp = h + 2 * padding, w + 2 * padding
        xp = np.zeros((n, hp, wp, ci), dtype=x.dtype)
        xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
        ho = (hp - (kh - 1) * dilation - 1) // stride + 1
        wo = (wp - (kw - 1) * dilation - 1) // stride + 1
        # The index is in range by construction, so "wrap" never wraps;
        # it only skips the per-element bounds check of the default
        # "raise" mode, about 1.3x faster on the gather.
        index = _im2col_index(ci, hp, wp, kh, kw, stride, dilation)
        cols = np.take(xp.reshape(n, hp * wp * ci), index, axis=1,
                       mode="wrap")
        cols_flat = cols.reshape(n, ho, wo, ci * kh * kw)
        w_flat = weight.reshape(co, ci * kh * kw)
        out = cols_flat @ w_flat.T                      # (N, Ho, Wo, C_out)
        res = np.empty((n, co, ho, wo), dtype=x.dtype)
        if bias is None:
            res[...] = out.transpose(0, 3, 1, 2)
        else:
            np.add(out.transpose(0, 3, 1, 2), bias[:, None, None], out=res)
        ctx = {
            "cols_flat": cols_flat if needs_grad else None,
            "w_flat": w_flat,
            "shape": (n, co, ci, kh, kw, ho, wo),
            "padded_shape": (n, ci, hp, wp),
            "stride": stride, "padding": padding, "dilation": dilation,
        }
        return res, ctx

    def conv2d_backward_input(self, ctx: Any, g: np.ndarray) -> np.ndarray:
        n, co, ci, kh, kw, ho, wo = ctx["shape"]
        g_nhwc = g.transpose(0, 2, 3, 1)                # (N, Ho, Wo, C_out)
        gc = g_nhwc @ ctx["w_flat"]                     # (N, Ho, Wo, C*kh*kw)
        gc = gc.reshape(n, ho, wo, ci, kh, kw)
        gx = self.col2im(gc, ctx["padded_shape"], kh, kw, ctx["stride"],
                         ctx["dilation"])
        p = ctx["padding"]
        if p:
            gx = gx[:, :, p:-p, p:-p]
        return gx

    def conv2d_backward_weight(self, ctx: Any, g: np.ndarray) -> np.ndarray:
        n, co, ci, kh, kw, ho, wo = ctx["shape"]
        g_flat = g.transpose(0, 2, 3, 1).reshape(-1, co)  # (N*Ho*Wo, C_out)
        cols_2d = ctx["cols_flat"].reshape(-1, ci * kh * kw)
        gw = g_flat.T @ cols_2d                           # (C_out, C*kh*kw)
        return gw.reshape(co, ci, kh, kw)


@functools.lru_cache(maxsize=None)
def _fft_module():
    """``scipy.fft``, imported on the first fft dispatch, else ``numpy.fft``.

    scipy's pocketfft keeps float32 in complex64; numpy.fft promotes.
    Importing scipy costs a process ~27 MB, so a process that never
    runs the fft kernel never pays it.
    """
    try:
        from scipy import fft
    except ImportError:  # pragma: no cover - scipy is part of the toolchain
        return np.fft
    return fft


class FFTBackend:
    """Frequency-domain convolution for wide-channel workloads.

    All three conv passes become ``rfft2`` → one batched complex matmul
    over frequencies (the channel contraction) → ``irfft2``:

    * *forward* — circular cross-correlation at the padded spatial size
      ``(Hp, Wp)``: exact because the kernel support fits inside the
      padded input (validated before dispatch), so no wraparound reaches
      the retained output positions; stride subsamples afterwards.
    * *input gradient* — full convolution of the stride-upsampled output
      gradient with the (dilation-embedded) kernel.  Its linear support
      is ``(Ho-1)·s + ek ≤ Hp``, so the same ``(Hp, Wp)`` circular
      transform is already exact.
    * *weight gradient* — circular correlation of the upsampled gradient
      with the forward's cached input spectrum; kernel taps are sliced
      out at the dilated positions.

    Work per pass is O(N·C·HW·log HW) for the transforms plus
    O(HW·N·Ci·Co) for the contraction, versus im2col's
    O(HW·N·Ci·Co·k²) — the k² factor is the win, so this kernel pays
    off when channel products are large (the paper profile's 256-filter
    autoencoders) and loses on the thin smoke/quick models.  Stride > 1
    computes the stride-1 result and subsamples (correct, not
    optimised); the target workload is stride-1 ``same`` convolution.

    Not bitwise: transforms reorder the floating-point reduction.  With
    scipy present the whole pipeline stays in float32/complex64 and
    errors sit well inside ``rtol``/``atol`` below; without scipy the
    ``numpy.fft`` fallback round-trips through float64, which *tightens*
    accuracy at some extra memory cost.
    """

    name = "fft"
    bitwise = False
    rtol = 2e-4
    atol = 1e-5

    @staticmethod
    def _rfft2(a: np.ndarray, s: Tuple[int, int]) -> np.ndarray:
        return _fft_module().rfft2(a, s=s, axes=(-2, -1))

    @staticmethod
    def _irfft2(a: np.ndarray, s: Tuple[int, int], dtype: np.dtype,
                axes: Tuple[int, int] = (-2, -1)) -> np.ndarray:
        out = _fft_module().irfft2(a, s=s, axes=axes)
        return out.astype(dtype, copy=False)

    @staticmethod
    def _support_phase(taps_h: np.ndarray, taps_w: np.ndarray,
                       hp: int, wp: int, cdtype) -> np.ndarray:
        """rfft2 phase matrix restricted to a small spatial support.

        ``P[(i, j), (fy, fx)] = exp(-2pi*i*(fy*u_i/Hp + fx*v_j/Wp))`` for
        tap positions ``u_i``/``v_j``.  A k x k kernel only occupies k^2
        of the Hp x Wp padded grid, so its spectrum is this tiny matrix
        applied to the taps — ``Co*Ci`` full FFTs of mostly-zero planes
        collapse into one GEMM over the k^2 support.
        """
        fy = np.arange(hp)
        fx = np.arange(wp // 2 + 1)
        ph_y = np.exp((-2j * np.pi / hp) * np.outer(taps_h, fy))
        ph_x = np.exp((-2j * np.pi / wp) * np.outer(taps_w, fx))
        p = ph_y[:, None, :, None] * ph_x[None, :, None, :]
        return p.reshape(taps_h.size * taps_w.size,
                         hp * fx.size).astype(cdtype)

    @classmethod
    def _support_inverse_phase(cls, taps_h: np.ndarray, taps_w: np.ndarray,
                               hp: int, wp: int, cdtype) -> np.ndarray:
        """Adjoint of :meth:`_support_phase`: half-spectrum -> taps.

        Evaluates the real ``irfft2`` at the tap positions only.  The
        dropped conjugate half of the spectrum contributes the complex
        conjugate of the kept half (Hermitian symmetry of a real
        signal's DFT), so non-self-conjugate columns count twice and the
        caller takes the real part of ``spectrum @ Q``.
        """
        q = np.conj(cls._support_phase(taps_h, taps_w, hp, wp, cdtype)).T
        fw = wp // 2 + 1
        weights = np.full(fw, 2.0)
        weights[0] = 1.0
        if wp % 2 == 0:
            weights[-1] = 1.0
        scale = (np.tile(weights, hp) / (hp * wp)).astype(q.real.dtype)
        return q * scale[:, None]

    @staticmethod
    def _weight_spectrum(w2: np.ndarray, phase: np.ndarray,
                         conj: bool) -> np.ndarray:
        """Spectrum of a small-support kernel, bins-first and contiguous.

        ``w2`` is (rows, taps) real, ``phase`` is (taps, F) complex from
        :meth:`_support_phase`.  Returns ``(F, rows)`` — the layout the
        batched frequency GEMMs consume — built with two *real* GEMMs
        (the kernel is real, so real/imag parts never mix) instead of
        one complex GEMM into a transposed copy.  ``conj=True`` folds
        the conjugation needed for cross-correlation into the build.
        """
        out = np.empty((phase.shape[1], w2.shape[0]), dtype=phase.dtype)
        out.real = phase.real.T @ w2.T
        if conj:
            np.negative(phase.imag.T @ w2.T, out=out.imag)
        else:
            out.imag = phase.imag.T @ w2.T
        return out

    def _upsampled_grad_spectrum(self, ctx: Any,
                                 g: np.ndarray) -> np.ndarray:
        """Bins-first rfft2 of the gradient scattered to stride positions.

        Returns ``(F, N, Co)`` so both backward contractions are single
        contiguous batched GEMMs over the frequency axis.  The result is
        memoized on the ctx for the (standard) case where the input and
        weight gradients are driven by the same output-gradient array.
        """
        cached = ctx.get("_gf")
        if cached is not None and cached[0] is g:
            return cached[1]
        n, co, ci, kh, kw, ho, wo = ctx["shape"]
        hp, wp = ctx["padded_shape"][2], ctx["padded_shape"][3]
        s = ctx["stride"]
        gup = np.zeros((n, co, hp, wp), dtype=g.dtype)
        gup[:, :, :(ho - 1) * s + 1:s, :(wo - 1) * s + 1:s] = g
        gf = self._rfft2(gup, (hp, wp))               # (N, Co, fh, fw)
        fh, fw = gf.shape[-2], gf.shape[-1]
        gf = gf.transpose(2, 3, 0, 1).reshape(fh * fw, n, co)
        ctx["_gf"] = (g, gf)
        return gf

    def conv2d_forward(self, x: np.ndarray, weight: np.ndarray,
                       bias: Optional[np.ndarray], stride: int, padding: int,
                       dilation: int, needs_grad: bool
                       ) -> Tuple[np.ndarray, Any]:
        co, ci, kh, kw = weight.shape
        xp = _pad(x, padding)
        n, _, hp, wp = xp.shape
        eff_kh = (kh - 1) * dilation + 1
        eff_kw = (kw - 1) * dilation + 1
        ho = (hp - eff_kh) // stride + 1
        wo = (wp - eff_kw) // stride + 1

        xf4 = self._rfft2(xp, (hp, wp))               # (N, Ci, fh, fw)
        fh, fw = xf4.shape[-2], xf4.shape[-1]
        # Bins-first layout: (F, N, Ci), contiguous, so the channel
        # contraction below is one batched GEMM with no hidden copies.
        xf = xf4.transpose(2, 3, 0, 1).reshape(fh * fw, n, ci)
        # Weight spectrum via the k^2-support phase GEMM: equivalent to
        # rfft2 of the zero-padded (dilation-embedded) kernel, without
        # materializing or transforming Co*Ci mostly-zero Hp x Wp planes.
        # Conjugated at build time: cross-correlation = IDFT(X·conj(W)).
        taps_h = np.arange(kh) * dilation
        taps_w = np.arange(kw) * dilation
        phase = self._support_phase(taps_h, taps_w, hp, wp, xf.dtype)
        w2 = weight.transpose(1, 0, 2, 3).reshape(ci * co, kh * kw)
        wfc = self._weight_spectrum(w2, phase, conj=True)
        wfc = wfc.reshape(fh * fw, ci, co)            # (F, Ci, Co)
        yf = xf @ wfc                                 # (F, N, Co)
        # Invert over the leading (frequency) axes and only then move
        # the small cropped result back to NCHW.
        y = self._irfft2(yf.reshape(fh, fw, n, co), (hp, wp), x.dtype,
                         axes=(0, 1))
        y = y[:(ho - 1) * stride + 1:stride,
              :(wo - 1) * stride + 1:stride]
        out = np.ascontiguousarray(y.transpose(2, 3, 0, 1))
        if bias is not None:
            out += bias.reshape(-1, 1, 1)
        ctx = {
            "xf": xf if needs_grad else None,
            "wfc": wfc if needs_grad else None,
            "shape": (n, co, ci, kh, kw, ho, wo),
            "padded_shape": xp.shape,
            "stride": stride, "padding": padding, "dilation": dilation,
            "eff_k": (eff_kh, eff_kw),
        }
        return out, ctx

    def conv2d_backward_input(self, ctx: Any, g: np.ndarray) -> np.ndarray:
        n, co, ci, kh, kw, ho, wo = ctx["shape"]
        hp, wp = ctx["padded_shape"][2], ctx["padded_shape"][3]
        fh, fw = hp, wp // 2 + 1
        gf = self._upsampled_grad_spectrum(ctx, g)    # (F, N, Co)
        # Full convolution = IDFT(G · W); the linear support fits in
        # (Hp, Wp), so the circular transform is exact.  The cached
        # spectrum is conj(W) as (F, Ci, Co); rather than rebuilding W,
        # conjugate the *small* G side:  G·W = conj(conj(G)·conj(W)).
        cm = np.conj(gf) @ ctx["wfc"].transpose(0, 2, 1)   # (F, N, Ci)
        gx = self._irfft2(np.conj(cm).reshape(fh, fw, n, ci),
                          (hp, wp), g.dtype, axes=(0, 1))
        p = ctx["padding"]
        if p:
            gx = gx[p:-p, p:-p]
        return np.ascontiguousarray(gx.transpose(2, 3, 0, 1))

    def conv2d_backward_weight(self, ctx: Any, g: np.ndarray) -> np.ndarray:
        n, co, ci, kh, kw, ho, wo = ctx["shape"]
        hp, wp = ctx["padded_shape"][2], ctx["padded_shape"][3]
        d = ctx["dilation"]
        gf = self._upsampled_grad_spectrum(ctx, g)    # (F, N, Co)
        nf = gf.shape[0]
        # Correlation = IDFT(conj(G) · X), contracted over N per bin.
        gwf = np.conj(gf).transpose(0, 2, 1) @ ctx["xf"]   # (F, Co, Ci)
        # Only the k^2 dilated tap positions of the inverse transform
        # are kernel gradient; evaluate exactly those via the adjoint
        # phase GEMM instead of Co*Ci full irfft2 planes.
        taps_h = np.arange(kh) * d
        taps_w = np.arange(kw) * d
        inv = self._support_inverse_phase(taps_h, taps_w, hp, wp, gf.dtype)
        gw = (gwf.reshape(nf, co * ci).T @ inv).real
        gw = gw.astype(g.dtype, copy=False)
        return np.ascontiguousarray(gw.reshape(co, ci, kh, kw))


#: The conv kernels by name — the values ``Conv2D.conv_kernel`` and a
#: profile's ``nn_backend`` may take.
KERNELS: Mapping[str, Any] = MappingProxyType(
    {"numpy": NumpyBackend(), "fft": FFTBackend()})


def check_kernel(name: str) -> str:
    """Return ``name`` if it names a conv kernel, else raise ValueError."""
    if name not in KERNELS:
        raise ValueError(f"unknown nn backend {name!r}; "
                         f"available: {', '.join(sorted(KERNELS))}")
    return name
