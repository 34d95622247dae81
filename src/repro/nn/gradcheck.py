"""Finite-difference gradient checking for the autodiff engine.

Every attack in this reproduction differentiates a scalar loss with
respect to input images through :mod:`repro.nn.autograd`; a silently
wrong vector-Jacobian product would corrupt every downstream table.
This module is the guard rail: it compares each op's analytic gradient
against a central-difference numerical estimate.

Originally these helpers lived inside the test tree
(``tests/nn/gradcheck.py``, which now re-exports from here); they are
library code so that user-defined ops, custom layers and downstream
projects can verify their gradients with the same machinery::

    from repro.nn.gradcheck import check_gradients
    check_gradients(lambda a, b: (a * b).sum() + a.abs().sum(), x, y)

All checks are performed in float64: the engine preserves float64
inputs end-to-end, and central differences at ``eps=1e-5`` need that
precision to meet the default tolerances.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.backend import KERNELS, check_kernel

__all__ = [
    "backend_equivalence_matrix",
    "check_gradient",
    "check_gradients",
    "combo_check",
    "numerical_gradient",
]


def numerical_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                       eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of an ndarray."""
    x = x.astype(np.float64, copy=True)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f(x)
        x[idx] = orig - eps
        f_minus = f(x)
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad


def check_gradient(op: Callable[[Tensor], Tensor], x: np.ndarray,
                   atol: float = 1e-6, rtol: float = 1e-4) -> None:
    """Assert that autograd and numerical gradients agree for ``op``.

    ``op`` maps a Tensor to a Tensor; the scalar under test is the sum of
    squares of the op output (smooth and sensitive to every element).
    """
    x = x.astype(np.float64)

    def scalar(arr: np.ndarray) -> float:
        out = op(Tensor(arr, dtype=np.float64))
        return float((out.data.astype(np.float64) ** 2).sum())

    t = Tensor(x, requires_grad=True, dtype=np.float64)
    out = op(t)
    loss = (out * out).sum()
    loss.backward()
    assert t.grad is not None, "no gradient reached the input"
    numeric = numerical_gradient(scalar, x)
    np.testing.assert_allclose(t.grad, numeric, atol=atol, rtol=rtol)


def check_gradients(op: Callable[..., Tensor], *inputs: np.ndarray,
                    atol: float = 1e-6, rtol: float = 1e-4) -> None:
    """Check the gradient of a multi-input op with respect to every input.

    ``op`` takes one Tensor per entry of ``inputs`` and returns a Tensor
    (any shape); the scalar under test is the sum of squares of the
    output.  Each input's analytic gradient is compared against a
    central-difference estimate computed with the *other* inputs held
    fixed, so cross-terms (e.g. both operands of ``matmul``) are
    verified in one call.
    """
    if not inputs:
        raise ValueError("check_gradients needs at least one input array")
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]

    tensors = [Tensor(a, requires_grad=True, dtype=np.float64)
               for a in arrays]
    out = op(*tensors)
    loss = (out * out).sum()
    loss.backward()

    for pos, (tensor, array) in enumerate(zip(tensors, arrays)):
        assert tensor.grad is not None, (
            f"no gradient reached input {pos} of {len(arrays)}")

        def scalar(arr: np.ndarray, pos: int = pos) -> float:
            args = [Tensor(arr if i == pos else a, dtype=np.float64)
                    for i, a in enumerate(arrays)]
            value = op(*args)
            return float((value.data.astype(np.float64) ** 2).sum())

        numeric = numerical_gradient(scalar, array)
        np.testing.assert_allclose(
            tensor.grad, numeric, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch on input {pos}")


def combo_check(op: Callable[..., Tensor], *arg_candidates: Sequence,
                kernels: Optional[Sequence[str]] = None,
                atol: float = 1e-6, rtol: float = 1e-4,
                **kwarg_candidates: Sequence) -> int:
    """Exhaustively gradcheck ``op`` over argument combinations × kernels.

    Autograd-test style: each positional entry of ``arg_candidates`` and
    each keyword entry of ``kwarg_candidates`` is a *list of candidate
    values*; every element of their cartesian product is gradchecked via
    :func:`check_gradients` on every conv kernel in ``kernels`` (default:
    all of :data:`repro.nn.backend.KERNELS`), passed to ``op`` as its
    ``conv_kernel`` keyword.  Positional candidates must be ndarrays
    (they become differentiable inputs); keyword candidates are passed
    through verbatim (strides, padding modes, dilations, ...).

    Combinations that raise :class:`ValueError` during the forward pass
    are skipped — the sweep deliberately includes shape/stride pairings
    that some settings reject (e.g. kernels overhanging the input), and
    a *consistent* rejection across kernels is part of the contract: if
    one kernel rejects a combination, every kernel must.

    Returns the number of (combination, kernel) pairs actually checked,
    so callers can assert the sweep was not vacuous.
    """
    kernels = tuple(KERNELS) if kernels is None else tuple(kernels)
    for name in kernels:
        check_kernel(name)                   # validate before sweeping
    keys = list(kwarg_candidates)
    checked = 0
    for args in itertools.product(*arg_candidates):
        for values in itertools.product(*(kwarg_candidates[k] for k in keys)):
            kwargs = dict(zip(keys, values))
            rejected: Dict[str, bool] = {}
            for name in kernels:
                try:
                    check_gradients(
                        lambda *ts: op(*ts, conv_kernel=name, **kwargs),
                        *args, atol=atol, rtol=rtol)
                    rejected[name] = False
                    checked += 1
                except ValueError:
                    rejected[name] = True
            if len(set(rejected.values())) > 1:
                raise AssertionError(
                    f"kernels disagree on rejecting kwargs={kwargs}: "
                    f"{rejected}")
    return checked


def backend_equivalence_matrix(op: Callable[..., Tensor],
                               *inputs: np.ndarray,
                               kernels: Optional[Sequence[str]] = None,
                               reference: str = "numpy"
                               ) -> Dict[str, Dict[str, float]]:
    """Pin every conv kernel's output/gradient divergence from the reference.

    Runs ``op`` forward and backward on each kernel (passed as its
    ``conv_kernel`` keyword) and measures the worst absolute difference
    from the ``reference`` kernel for the output and for every input
    gradient.  Kernels declaring ``bitwise=True`` are *asserted* exactly
    equal; tolerance kernels are asserted within their declared
    ``rtol``/``atol``.  Returns the matrix
    ``{kernel: {"out": max_abs_diff, "grad0": ..., ...}}`` so tests and
    benchmarks can report (and gate on) the observed bounds.
    """
    kernels = tuple(KERNELS) if kernels is None else tuple(kernels)
    arrays = [np.asarray(x) for x in inputs]

    def run(name: str):
        tensors = [Tensor(a, requires_grad=True, dtype=a.dtype)
                   for a in arrays]
        out = op(*tensors, conv_kernel=name)
        out.backward(np.ones_like(out.data))
        return out.data, [t.grad for t in tensors]

    ref_out, ref_grads = run(reference)
    matrix: Dict[str, Dict[str, float]] = {}
    for name in kernels:
        kernel = KERNELS[check_kernel(name)]
        out, grads = run(name)
        pairs = [("out", out, ref_out)] + [
            (f"grad{i}", g, rg) for i, (g, rg) in enumerate(zip(grads,
                                                                ref_grads))]
        row: Dict[str, float] = {}
        for label, got, want in pairs:
            row[label] = float(np.max(np.abs(got - want))) if got.size else 0.0
            if kernel.bitwise:
                assert np.array_equal(got, want), (
                    f"kernel {name!r} declares bitwise stability but "
                    f"{label} differs from {reference!r} by {row[label]:g}")
            else:
                np.testing.assert_allclose(
                    got, want, rtol=kernel.rtol, atol=kernel.atol,
                    err_msg=(f"kernel {name!r} {label} out of declared "
                             f"tolerance vs {reference!r}"))
        matrix[name] = row
    return matrix
