"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every differentiable quantity in the training graph is a :class:`Tensor`.
Frozen inputs (teacher band statistics, bank entries, visual embeddings)
enter the graph as constants, so no gradient can reach them by construction;
the trainer's finite-difference harness checks the analytic side of every
op used here.

Ops that combine only constants collapse back to constants, which keeps the
tape small and makes "this path carries no gradient" a structural fact rather
than a convention.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

import numpy as np

from .errors import NumericalDegeneracyError, ParameterError

Array = np.ndarray

# Norms below this are treated as degenerate rather than normalized.
MIN_NORM = 1e-12

# Creation stamps; `backward` runs VJPs in decreasing stamp order. One counter
# serves every tape: only the order of the stamps matters.
_stamps = itertools.count()


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode gradients."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp", "_stamp")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _vjp: Callable[[Array], Iterable[tuple["Tensor", Array]]] | None = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._vjp = _vjp
        self._stamp = next(_stamps)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        tag = "param" if self.requires_grad and not self._parents else "node"
        return f"Tensor({tag}, shape={self.shape})"


def lift(x) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def parameter(value) -> Tensor:
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


def constant(value) -> Tensor:
    return Tensor(value)


def _node(value, parents, vjp) -> Tensor:
    live = tuple(p for p in parents if p.requires_grad)
    if not live:
        return Tensor(value)
    return Tensor(value, requires_grad=True, _parents=tuple(parents), _vjp=vjp)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(root: Tensor) -> None:
    """Accumulate gradients of a scalar `root` into every reachable tensor."""
    if root.value.size != 1:
        raise ParameterError("backward() needs a scalar root")
    if not root.requires_grad:
        return
    # A node is stamped after its parents, so creation order is a topological
    # order: running the reachable VJPs newest-first hands each node its whole
    # gradient before its own VJP runs.
    pending = {root._stamp: root} if root._vjp is not None else {}
    stack = list(pending.values())
    while stack:
        for parent in stack.pop()._parents:
            if parent._vjp is not None and parent._stamp not in pending:
                pending[parent._stamp] = parent
                stack.append(parent)
    root.grad = np.ones_like(root.value)
    for stamp in sorted(pending, reverse=True):
        node = pending[stamp]
        for parent, g in node._vjp(node.grad):
            if not parent.requires_grad:
                continue
            if parent.grad is None:
                # A copy: one VJP may hand the same array to two parents.
                parent.grad = np.array(g)
            else:
                parent.grad += g


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitive ops


def add(a, b) -> Tensor:
    a, b = lift(a), lift(b)
    out = a.value + b.value

    def vjp(g):
        return ((a, _unbroadcast(g, a.value.shape)), (b, _unbroadcast(g, b.value.shape)))

    return _node(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = lift(a), lift(b)
    out = a.value - b.value

    def vjp(g):
        return ((a, _unbroadcast(g, a.value.shape)), (b, _unbroadcast(-g, b.value.shape)))

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = lift(a), lift(b)
    out = a.value * b.value

    def vjp(g):
        return (
            (a, _unbroadcast(g * b.value, a.value.shape)),
            (b, _unbroadcast(g * a.value, b.value.shape)),
        )

    return _node(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = lift(a), lift(b)
    out = a.value / b.value

    def vjp(g):
        return (
            (a, _unbroadcast(g / b.value, a.value.shape)),
            (b, _unbroadcast(-g * out / b.value, b.value.shape)),
        )

    return _node(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = lift(a), lift(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ParameterError("matmul expects 2-D operands")
    out = a.value @ b.value

    def vjp(g):
        return ((a, g @ b.value.T), (b, a.value.T @ g))

    return _node(out, (a, b), vjp)


def transpose(a) -> Tensor:
    a = lift(a)

    def vjp(g):
        return ((a, g.T),)

    return _node(a.value.T, (a,), vjp)


def tanh(a) -> Tensor:
    a = lift(a)
    out = np.tanh(a.value)

    def vjp(g):
        return ((a, g * (1.0 - out * out)),)

    return _node(out, (a,), vjp)


def exp(a) -> Tensor:
    a = lift(a)
    out = np.exp(a.value)

    def vjp(g):
        return ((a, g * out),)

    return _node(out, (a,), vjp)


def log(a) -> Tensor:
    a = lift(a)

    def vjp(g):
        return ((a, g / a.value),)

    return _node(np.log(a.value), (a,), vjp)


def sqrt(a) -> Tensor:
    a = lift(a)
    out = np.sqrt(a.value)

    def vjp(g):
        return ((a, g * 0.5 / out),)

    return _node(out, (a,), vjp)


def square(a) -> Tensor:
    a = lift(a)

    def vjp(g):
        return ((a, g * 2.0 * a.value),)

    return _node(a.value * a.value, (a,), vjp)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = lift(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return ((a, np.broadcast_to(gg, a.value.shape).copy()),)

    return _node(out, (a,), vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = lift(a)
    out = a.value.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.value.size
    else:
        count = a.value.shape[axis]

    def vjp(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return ((a, np.broadcast_to(gg / count, a.value.shape).copy()),)

    return _node(out, (a,), vjp)


def concat_cols(a, b) -> Tensor:
    a, b = lift(a), lift(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ParameterError("concat_cols expects 2-D operands")
    out = np.concatenate([a.value, b.value], axis=1)
    na = a.value.shape[1]

    def vjp(g):
        return ((a, g[:, :na]), (b, g[:, na:]))

    return _node(out, (a, b), vjp)


def cols(a, lo: int, hi: int) -> Tensor:
    a = lift(a)
    out = a.value[:, lo:hi]

    def vjp(g):
        full = np.zeros_like(a.value)
        full[:, lo:hi] = g
        return ((a, full),)

    return _node(out, (a,), vjp)


def take_rows(a, idx) -> Tensor:
    """Row gather; duplicate indices accumulate in the backward pass."""
    a = lift(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.value[idx]

    def vjp(g):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        return ((a, full),)

    return _node(out, (a,), vjp)


# ---------------------------------------------------------------------------
# fused composites: each is one tape node with a hand-written VJP. The value
# is computed by the same numpy steps as the primitive chain it replaces, and
# the gradient agrees with that chain's up to rounding.


def affine(x, w, b) -> Tensor:
    """x @ w + b: (n, k) rows, a (k, m) weight, a bias broadcast over rows."""
    x, w, b = lift(x), lift(w), lift(b)
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise ParameterError("affine expects 2-D operands")
    out = x.value @ w.value + b.value

    def vjp(g):
        return ((x, g @ w.value.T), (w, x.value.T @ g), (b, _unbroadcast(g, b.value.shape)))

    return _node(out, (x, w, b), vjp)


def softmax_rows(x) -> Tensor:
    x = lift(x)
    # Shifting by the row max keeps exp() in range; softmax is shift invariant.
    e = np.exp(x.value - x.value.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return ((x, out * (g - (g * out).sum(axis=1, keepdims=True))),)

    return _node(out, (x,), vjp)


def l2normalize_rows(x, min_norm: float = MIN_NORM) -> Tensor:
    x = lift(x)
    norms = np.sqrt((x.value * x.value).sum(axis=1))
    if not np.all(np.isfinite(x.value)):
        raise NumericalDegeneracyError("cannot normalize non-finite rows")
    if np.any(norms < min_norm):
        bad = int(np.argmin(norms))
        raise NumericalDegeneracyError(
            f"cannot normalize a zero-length vector (row {bad}, norm {norms[bad]:.3e})"
        )
    norms = norms[:, None]
    out = x.value / norms

    def vjp(g):
        return ((x, (g - out * (g * out).sum(axis=1, keepdims=True)) / norms),)

    return _node(out, (x,), vjp)


def layer_norm_rows(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Feature-dimension LayerNorm with learnable gain/bias."""
    x, gain, bias = lift(x), lift(gain), lift(bias)
    centered = x.value - x.value.mean(axis=1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=1, keepdims=True) + eps)
    normed = centered / std
    out = normed * gain.value + bias.value

    def vjp(g):
        gn = g * gain.value
        gx = (gn - gn.mean(axis=1, keepdims=True)
              - normed * (gn * normed).mean(axis=1, keepdims=True)) / std
        return (
            (x, _unbroadcast(gx, x.value.shape)),
            (gain, _unbroadcast(g * normed, gain.value.shape)),
            (bias, _unbroadcast(g, bias.value.shape)),
        )

    return _node(out, (x, gain, bias), vjp)


def mlp_rows(x, w1, b1, w2, b2) -> Tensor:
    """Affine -> tanh -> affine applied to each row."""
    return affine(tanh(affine(x, w1, b1)), w2, b2)


def cross_entropy_mean(logits, labels, num_classes: int | None = None) -> Tensor:
    """Mean cross-entropy of integer labels under row logits."""
    logits = lift(logits)
    labels = np.asarray(labels, dtype=np.intp)
    if logits.value.ndim != 2 or labels.ndim != 1:
        raise ParameterError("cross_entropy_mean expects (n, c) logits and (n,) labels")
    n, c = logits.value.shape
    if num_classes is not None and c != num_classes:
        raise ParameterError(f"expected {num_classes} logit columns, got {c}")
    if labels.shape[0] != n:
        raise ParameterError("labels do not match the logit batch")
    if np.any(labels < 0) or np.any(labels >= c):
        raise ParameterError("label out of range")
    x = logits.value
    shift = x.max(axis=1, keepdims=True)
    e = np.exp(x - shift)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    out = ((shift + np.log(total)) - x[rows, labels][:, None]).mean()

    def vjp(g):
        grad = e / total
        grad[rows, labels] -= 1.0
        return ((logits, grad * (g / n)),)

    return _node(out, (logits,), vjp)


def cosine_rows(a, b, min_norm: float = MIN_NORM) -> Tensor:
    """Row-wise cosine similarity; degenerate rows raise."""
    a, b = lift(a), lift(b)
    na = np.sqrt((a.value * a.value).sum(axis=1))
    nb = np.sqrt((b.value * b.value).sum(axis=1))
    if np.any(na < min_norm) or np.any(nb < min_norm):
        raise NumericalDegeneracyError("cosine of a zero-length vector")
    den = na * nb
    out = (a.value * b.value).sum(axis=1) / den

    def vjp(g):
        gd = (g / den)[:, None]
        gc = (g * out)[:, None]
        ga = gd * b.value - gc * a.value / (na * na)[:, None]
        gb = gd * a.value - gc * b.value / (nb * nb)[:, None]
        return ((a, _unbroadcast(ga, a.value.shape)), (b, _unbroadcast(gb, b.value.shape)))

    return _node(out, (a, b), vjp)
