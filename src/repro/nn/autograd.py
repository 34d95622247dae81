"""A reverse-mode automatic-differentiation engine over numpy ndarrays.

This module is the substrate the whole reproduction stands on: the paper's
attacks (C&W, EAD) need gradients of scalar attack losses with respect to
*input images*, and the defense needs trainable classifiers and
autoencoders.  The original work used TensorFlow; this is a from-scratch
replacement with the same contract — build a computation graph eagerly,
then call :meth:`Tensor.backward` to populate ``.grad`` on every leaf that
``requires_grad``.

Design notes
------------
* A :class:`Tensor` wraps one ndarray plus an optional backward closure.
  Ops record ``(parent, vjp)`` pairs, where ``vjp`` maps the upstream
  gradient to this parent's contribution (a vector-Jacobian product).
* Broadcasting is supported everywhere through :func:`unbroadcast`,
  which sums gradient contributions back down to the parent's shape.
* ``no_grad()`` disables graph construction, which matters for the
  evaluation loops (defense inference over thousands of images).
* Gradients accumulate; call :meth:`Tensor.zero_grad` (or use the
  optimizers, which do it for you) between backward passes.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

DEFAULT_DTYPE = np.float32

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Grad mode is per thread, as in torch: one serving thread's
#: ``no_grad`` must not switch graph recording off (or, through
#: interleaved save/restore, leave it off) for another thread.
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_nn_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction in this thread.

    Forward passes inside the block behave identically but record no
    backward closures, so they are cheaper and cannot be backpropagated
    through.  Mirrors ``torch.no_grad``.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    """Return whether graph construction is active in this thread."""
    return _GRAD_ENABLED.get()


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    If an op broadcast a parent of shape ``shape`` up to ``grad.shape``,
    the parent's gradient is the sum of ``grad`` over every broadcast
    axis.
    """
    if grad.shape == shape:
        return grad
    # Leading axes added by broadcasting are summed away entirely.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Axes that were size-1 in the parent are summed with keepdims.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray node in a dynamically built computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 dtype: Optional[np.dtype] = None, name: Optional[str] = None):
        if isinstance(data, Tensor):
            raise TypeError("wrapping a Tensor in a Tensor is almost certainly a bug")
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        # List of (parent_tensor, vjp_fn) recorded by the op that made us.
        self._parents: List[Tuple["Tensor", Callable[[np.ndarray], np.ndarray]]] = []
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a 0-d / 1-element tensor as a python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self.data.item()

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor to every reachable leaf.

        ``grad`` defaults to ones (so a scalar loss needs no argument).
        Leaf tensors with ``requires_grad`` accumulate into ``.grad``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.shape}")

        order = _topological_order(self)
        # Gradients flowing into each node during this traversal.
        flowing = {id(self): grad}
        for node in order:
            node_grad = flowing.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = node_grad.astype(node.data.dtype, copy=True)
                else:
                    node.grad = node.grad + node_grad
            for parent, vjp in node._parents:
                if not _needs_grad(parent):
                    continue
                contribution = vjp(node_grad)
                key = id(parent)
                if key in flowing:
                    flowing[key] = flowing[key] + contribution
                else:
                    flowing[key] = contribution

    # ------------------------------------------------------------------
    # Arithmetic operators (graph-building)
    # ------------------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return take(self, index)

    # Convenience methods mirroring the free functions.
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        return transpose(self, axes)

    @property
    def T(self) -> "Tensor":
        return transpose(self, None)

    def abs(self) -> "Tensor":
        return abs_(self)

    def exp(self) -> "Tensor":
        return exp(self)

    def log(self) -> "Tensor":
        return log(self)

    def clip(self, lo: float, hi: float) -> "Tensor":
        return clip(self, lo, hi)


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _topological_order(root: Tensor) -> List[Tensor]:
    """Return nodes reachable from ``root`` in reverse-topological order."""
    order: List[Tensor] = []
    visited = set()
    # Iterative DFS to survive deep graphs (e.g. 1000-iteration attacks
    # would overflow a recursive implementation if graphs were retained).
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent, _vjp in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def as_tensor(value: Union[Tensor, ArrayLike], dtype=None) -> Tensor:
    """Coerce ndarray/scalar to a non-differentiable Tensor (pass Tensors through)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=False, dtype=dtype)


#: Python scalars are "weak" operands (NumPy's NEP 50 rule): they take
#: the other operand's dtype instead of promoting it.  NumPy scalars
#: (``np.float64(2.0)``, which subclasses ``float``) are not in this set,
#: so the exact-type test below lets them promote as NumPy would.
_PY_SCALARS = (bool, int, float)


def _operands(a, b) -> Tuple[Tensor, Tensor]:
    """Coerce a binary op's operands; a Python scalar takes the other's dtype.

    Without this, ``logits * 6.0`` would wrap ``6.0`` as a float64 0-d
    array and promote a float32 graph (and every backward pass through
    it) to float64.
    """
    if type(b) in _PY_SCALARS and type(a) not in _PY_SCALARS:
        a = as_tensor(a)
        return a, as_tensor(b, dtype=a.dtype)
    if type(a) in _PY_SCALARS and type(b) not in _PY_SCALARS:
        b = as_tensor(b)
        return as_tensor(a, dtype=b.dtype), b
    return as_tensor(a), as_tensor(b)


def _make(data: np.ndarray,
          parents: Iterable[Tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]) -> Tensor:
    """Build an op output, recording parents only when grad mode is on."""
    out = Tensor(data, dtype=data.dtype)
    if _GRAD_ENABLED.get():
        out._parents = [(p, fn) for p, fn in parents if _needs_grad(p)]
    return out


# ----------------------------------------------------------------------
# Primitive ops
# ----------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data + b.data
    return _make(data, [
        (a, lambda g: unbroadcast(g, a.shape)),
        (b, lambda g: unbroadcast(g, b.shape)),
    ])


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data - b.data
    return _make(data, [
        (a, lambda g: unbroadcast(g, a.shape)),
        (b, lambda g: unbroadcast(-g, b.shape)),
    ])


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data * b.data
    return _make(data, [
        (a, lambda g: unbroadcast(g * b.data, a.shape)),
        (b, lambda g: unbroadcast(g * a.data, b.shape)),
    ])


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data / b.data
    return _make(data, [
        (a, lambda g: unbroadcast(g / b.data, a.shape)),
        (b, lambda g: unbroadcast(-g * a.data / (b.data ** 2), b.shape)),
    ])


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, [(a, lambda g: -g)])


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a python-scalar exponent."""
    a = as_tensor(a)
    if isinstance(exponent, Tensor):
        raise TypeError("power() supports scalar exponents only")
    exponent = float(exponent)
    data = a.data ** exponent
    return _make(data, [
        (a, lambda g: g * exponent * a.data ** (exponent - 1.0)),
    ])


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)
    return _make(data, [(a, lambda g: g * data)])


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)
    return _make(data, [(a, lambda g: g / a.data)])


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)
    return _make(data, [(a, lambda g: g * 0.5 / data)])


def abs_(a) -> Tensor:
    """Elementwise absolute value; subgradient sign(x) (0 at 0)."""
    a = as_tensor(a)
    data = np.abs(a.data)
    return _make(data, [(a, lambda g: g * np.sign(a.data))])


def clip(a, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)
    inside = ((a.data >= lo) & (a.data <= hi)).astype(a.data.dtype)
    return _make(data, [(a, lambda g: g * inside)])


def maximum(a, b) -> Tensor:
    """Elementwise max; gradient is split 50/50 on exact ties."""
    a, b = _operands(a, b)
    data = np.maximum(a.data, b.data)
    a_wins = (a.data > b.data).astype(data.dtype)
    ties = (a.data == b.data).astype(data.dtype) * 0.5
    wa, wb = a_wins + ties, (1.0 - a_wins) - ties
    return _make(data, [
        (a, lambda g: unbroadcast(g * wa, a.shape)),
        (b, lambda g: unbroadcast(g * wb, b.shape)),
    ])


def minimum(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = np.minimum(a.data, b.data)
    a_wins = (a.data < b.data).astype(data.dtype)
    ties = (a.data == b.data).astype(data.dtype) * 0.5
    wa, wb = a_wins + ties, (1.0 - a_wins) - ties
    return _make(data, [
        (a, lambda g: unbroadcast(g * wa, a.shape)),
        (b, lambda g: unbroadcast(g * wb, b.shape)),
    ])


def relu(a) -> Tensor:
    a = as_tensor(a)
    # Single-pass forward; the backward mask is recomputed lazily so
    # forward-only passes never pay for it.
    return _make(np.maximum(a.data, 0), [(a, lambda g: g * (a.data > 0))])


def leaky_relu(a, negative_slope: float = 0.01) -> Tensor:
    """max(x, slope*x); gradient is 1 above zero, ``negative_slope`` below."""
    a = as_tensor(a)
    slope = float(negative_slope)
    factor = np.where(a.data > 0, 1.0, slope).astype(a.data.dtype)
    return _make(a.data * factor, [(a, lambda g: g * factor)])


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably; gradient is sigmoid(x)."""
    a = as_tensor(a)
    x = a.data
    data = (np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))).astype(x.dtype)
    sig = _stable_sigmoid(x)
    return _make(data, [(a, lambda g: g * sig)])


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow in either tail."""
    z = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, z), 1.0 + z)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = _stable_sigmoid(a.data)
    return _make(data, [(a, lambda g: g * data * (1.0 - data))])


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)
    return _make(data, [(a, lambda g: g * (1.0 - data ** 2))])


def matmul(a, b) -> Tensor:
    """Matrix product; supports 2-D and leading-batch-dim operands."""
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data

    def grad_a(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        return unbroadcast(ga, a.shape)

    def grad_b(g):
        gb = np.swapaxes(a.data, -1, -2) @ g
        return unbroadcast(gb, b.shape)

    return _make(data, [(a, grad_a), (b, grad_b)])


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is None:
            return np.broadcast_to(g, a.shape).astype(a.data.dtype)
        g_expanded = g
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % a.ndim for ax in axes)
            for ax in sorted(axes):
                g_expanded = np.expand_dims(g_expanded, ax)
        return np.broadcast_to(g_expanded, a.shape).astype(a.data.dtype)

    return _make(np.asarray(data), [(a, grad_fn)])


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax % a.ndim] for ax in axes]))
    return sum_(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(a, shape: Tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)
    return _make(data, [(a, lambda g: g.reshape(a.shape))])


def transpose(a, axes: Optional[Sequence[int]] = None) -> Tensor:
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)
    return _make(data, [(a, lambda g: np.transpose(g, inverse))])


def take(a, index) -> Tensor:
    """Fancy/basic indexing with scatter-add backward."""
    a = as_tensor(a)
    data = a.data[index]

    def grad_fn(g):
        out = np.zeros_like(a.data)
        np.add.at(out, index, g)
        return out

    return _make(np.asarray(data), [(a, grad_fn)])


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    parents = []
    offset = 0
    for t in tensors:
        width = t.shape[axis]
        start = offset

        def grad_fn(g, start=start, width=width):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, start + width)
            return g[tuple(slicer)]

        parents.append((t, grad_fn))
        offset += width
    return _make(data, parents)


def pad2d(a, padding: int) -> Tensor:
    """Zero-pad the two trailing spatial axes of an (N, C, H, W) tensor."""
    a = as_tensor(a)
    if padding == 0:
        return a
    p = int(padding)
    data = np.pad(a.data, ((0, 0), (0, 0), (p, p), (p, p)))

    def grad_fn(g):
        return g[:, :, p:-p, p:-p]

    return _make(data, [(a, grad_fn)])


def where(condition: np.ndarray, a, b) -> Tensor:
    """Elementwise select by a boolean ndarray (condition is not differentiable)."""
    a, b = _operands(a, b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)
    mask = cond.astype(data.dtype)
    return _make(data, [
        (a, lambda g: unbroadcast(g * mask, a.shape)),
        (b, lambda g: unbroadcast(g * (1.0 - mask), b.shape)),
    ])
