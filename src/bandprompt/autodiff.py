"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every differentiable quantity in the training graph is a :class:`Tensor`.
Frozen inputs (teacher band statistics, bank entries, visual embeddings)
enter the graph as constants: a plain `Tensor(x)`, or an array that a
composite `lift`s. No gradient can reach them by construction; the
trainer's finite-difference harness checks the analytic side of every op
used here. A pass that never calls `backward` runs on the live parameters
and reads `.value`: its nodes' VJPs never run.

Nodes whose parents are all constants collapse back to constants, which
keeps the tape small and makes "this path carries no gradient" a structural
fact rather than a convention. `node` is the one way onto the tape, and
every op a training step records is one node with a hand-written VJP: the
anchor-row gather `take_rows` (whose VJP is one one-hot product), the two
fused composites below, and the model's composites (`bands.head_graph`,
`bank.retrieve_rows`, `granules.fuse_rows`, `granules.film_rows`,
`losses.loss_sem`), which build their nodes from the array-level MLP, row-L2
and LayerNorm algebra here, so each formula is written once.
`logit_cross_entropy` also returns its detached row softmax, which the
trainer reuses as the semantic term's pseudo-labels, so a step computes the
class posteriors once. This module defines only what the program calls.

Sums over the rows or columns of the tape's small (tens of rows) arrays are
products with a read-only ones vector from `ONES`: `x.dot(ONES[x.shape[1]])`
sums each row, `ONES[x.shape[0]].dot(x)` each column. One BLAS matrix-vector
call costs about a third of `np.add.reduce` at those shapes, and it adds in
its own order, so a sum differs from the ufunc's by rounding only. Maximum
and minimum reductions (softmax shifts, guards) stay ufunc reductions.

Every 2-D product here, and in the bank, loss and trainer modules, is one
`ndarray.dot` call, never `@` or `np.matmul`: at the tape's shapes `a.dot(b)`
takes a quarter to a third less time than `a @ b` (1.1 against 1.7 us at
16x32 by 32x32), and both call the same BLAS routine with the same transpose
flags, so the bits are the same (`tests/test_products.py` pins both). Write
no product of an array with its own transpose: that one runs BLAS's `dsyrk`,
not `dgemm`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

import numpy as np

from .errors import NumericalDegeneracyError, ParameterError

Array = np.ndarray

# Norms below this are treated as degenerate rather than normalized.
MIN_NORM = 1e-12
LN_EPS = 1e-5


class _Ones(dict):
    """Length -> a read-only float64 vector of that many ones, built on first
    use. Read by subscript, it costs no Python-level call once built."""

    def __missing__(self, n: int) -> Array:
        ones = self[n] = np.ones(n)
        ones.setflags(write=False)
        return ones


# The ones vectors of every sum on the tape.
ONES = _Ones()

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
        return self.value.item()

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


def node(value, parents, vjp) -> Tensor:
    """A tape node over `parents`, or a constant when none of them is live.

    `vjp(g)` returns (parent, gradient) pairs. It may leave out, and should
    not compute, the gradients of parents that are constants. Each gradient
    is a fresh array that no other pair and no other tensor holds, nor `g`
    itself: `backward` keeps a parent's first gradient as its `.grad`
    without a copy and adds later ones into it in place.
    """
    for p in parents:
        if p.requires_grad:
            return Tensor(value, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(value)


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
        owner = pending[stamp]
        for parent, g in owner._vjp(owner.grad):
            if not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = g  # fresh, as `node` requires of a VJP
            else:
                parent.grad += g


# ---------------------------------------------------------------------------
# row gather


def take_rows(a, idx) -> Tensor:
    """Gather of the rows `idx` (non-negative) of `a`; the backward pass sums
    the gradients of duplicate indices as one (m, n) one-hot product."""
    a = lift(a)
    idx = np.asarray(idx, dtype=np.intp)
    if np.minimum.reduce(idx, axis=None, initial=0) < 0:
        raise ParameterError("take_rows needs non-negative row indices")
    out = a.value[idx]

    def vjp(g):
        onehot = (np.arange(a.value.shape[0])[:, None] == idx).astype(np.float64)
        return ((a, onehot.dot(g)),)

    return node(out, (a,), vjp)


# ---------------------------------------------------------------------------
# array-level algebra shared by the fused composites. Sums are products with
# `ONES`; other reductions call the ufunc (`np.minimum.reduce`, ...), which is
# what the `ndarray.min/max/any/all` methods call, less their Python wrapper.


def mlp_forward(x: Array, w1: Array, b1: Array, w2: Array, b2: Array) -> tuple[Array, Array]:
    """Affine -> tanh -> affine over the rows of `x`: (output, hidden rows)."""
    if x.ndim != 2 or w1.ndim != 2 or w2.ndim != 2:
        raise ParameterError("an MLP expects 2-D rows and weights")
    hidden = x.dot(w1)
    hidden += b1
    np.tanh(hidden, out=hidden)
    return hidden.dot(w2) + b2, hidden


def mlp_vjp(g: Array, x: Array, hidden: Array, w1: Tensor, b1: Tensor, w2: Tensor,
            b2: Tensor, need_x: bool) -> tuple[list[tuple[Tensor, Array]], Array | None]:
    """Gradients of `mlp_forward` under the output gradient `g`: (tensor,
    gradient) pairs for the live weights and biases, and the gradient
    reaching `x` (None unless `need_x`)."""
    grads = []
    if w2.requires_grad:
        grads.append((w2, hidden.T.dot(g)))
    if b2.requires_grad:
        grads.append((b2, ONES[g.shape[0]].dot(g)))
    gx = None
    if need_x or w1.requires_grad or b1.requires_grad:
        gh = g.dot(w2.value.T) * (1.0 - hidden * hidden)
        if w1.requires_grad:
            grads.append((w1, x.T.dot(gh)))
        if b1.requires_grad:
            grads.append((b1, ONES[gh.shape[0]].dot(gh)))
        if need_x:
            gx = gh.dot(w1.value.T)
    return grads, gx


def unit_rows(x: Array) -> tuple[Array, Array]:
    """Rows of `x` scaled to unit L2 norm, and the (n, 1) norms. A row whose
    norm is below MIN_NORM or not finite (a non-finite entry, or a squared norm
    past the float64 range) raises, naming the row."""
    norms = np.sqrt((x * x).dot(ONES[x.shape[1]]))
    # Norms are >= 0, inf or NaN; NaN propagates through both reductions and
    # fails both comparisons, so they accept exactly when every norm lies in
    # [MIN_NORM, inf), and `initial` accepts an empty stack.
    if not (np.minimum.reduce(norms, initial=MIN_NORM) >= MIN_NORM
            and np.maximum.reduce(norms, initial=0.0) < np.inf):
        bad = int((np.isfinite(norms) & (norms >= MIN_NORM)).argmin())
        kind = "a zero-length" if norms[bad] < MIN_NORM else "a non-finite-norm"
        raise NumericalDegeneracyError(
            f"cannot normalize {kind} vector (row {bad}, norm {norms[bad]:.3e})"
        )
    norms = norms[:, None]
    return x / norms, norms


def unit_rows_vjp(g: Array, out: Array, norms: Array) -> Array:
    """Gradient reaching `x` of `unit_rows(x)`, given its output and norms."""
    return (g - out * (g * out).dot(ONES[g.shape[1]])[:, None]) / norms


def layer_norm_forward(x: Array, gain: Array, bias: Array) -> tuple[Array, Array, Array]:
    """Feature-dimension LayerNorm of the rows of `x`: (output, normed rows, std)."""
    n = x.shape[1]
    ones = ONES[n]
    centered = x - (x.dot(ones) / n)[:, None]
    std = np.sqrt((centered * centered).dot(ones) / n + LN_EPS)[:, None]
    normed = centered / std
    return normed * gain + bias, normed, std


def layer_norm_vjp(g: Array, gain: Array, normed: Array, std: Array) -> Array:
    """Gradient reaching `x` of `layer_norm_forward`."""
    n = g.shape[1]
    ones = ONES[n]
    gn = g * gain
    return (gn - (gn.dot(ones) / n)[:, None]
            - normed * ((gn * normed).dot(ones) / n)[:, None]) / std


# ---------------------------------------------------------------------------
# fused composites: each is one tape node with a hand-written VJP. The value
# is computed by the same numpy steps as the primitive chain it replaces, and
# the gradient agrees with that chain's up to rounding.


def logit_cross_entropy(visual, rows, labels, scale: float,
                        weights=None) -> tuple[Tensor, Array]:
    """Cross-entropy of integer `labels` under the logits `scale * visual @
    rows^T`, for (n, d) visual and (c, d) class rows: the batch mean, or with
    (k, n) `weights` the k sums `weights @ losses` of the per-row losses.

    Returns the node and the detached (n, c) row softmax of the logits, a
    read-only array that the VJP also reads; nothing backpropagates through
    it."""
    visual, rows = lift(visual), lift(rows)
    v, r = visual.value, rows.value
    if v.ndim != 2 or r.ndim != 2 or v.shape[1] != r.shape[1]:
        raise ParameterError("logit_cross_entropy expects (n, d) visual and (c, d) class "
                             f"rows, got {v.shape} and {r.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    n, c = v.shape[0], r.shape[0]
    if labels.shape != (n,) or (weights is not None and weights.shape[1:] != (n,)):
        raise ParameterError("labels or weights do not match the visual batch")
    if (np.minimum.reduce(labels, initial=0) < 0
            or np.maximum.reduce(labels, initial=c - 1) >= c):
        raise ParameterError("label out of range")
    logits = v.dot(r.T) * scale
    shift = np.maximum.reduce(logits, axis=1)
    e = np.exp(logits - shift[:, None])
    total = e.dot(ONES[c])
    probs = e / total[:, None]
    probs.setflags(write=False)
    picked = np.arange(0, n * c, c) + labels  # each row's label, as a flat index
    losses = (shift + np.log(total)) - logits.reshape(-1)[picked]
    out = losses.dot(ONES[n]) / n if weights is None else weights.dot(losses)

    def vjp(g):
        glogits = probs.copy()
        glogits.reshape(-1)[picked] -= 1.0
        row_g = g / n if weights is None else g.dot(weights)[:, None]
        glogits = (glogits * row_g) * scale
        grads = []
        if visual.requires_grad:
            grads.append((visual, glogits.dot(r)))
        if rows.requires_grad:
            grads.append((rows, v.T.dot(glogits).T))
        return grads

    return node(out, (visual, rows), vjp), probs


def weighted_sum(first, terms) -> Tensor:
    """`first + w_1 * t_1 + w_2 * t_2 + ...` over the (t_i, w_i) pairs of
    `terms`, added left to right, for float weights; a vector term takes a
    vector of weights and adds the dot product."""
    first = lift(first)
    terms = [(lift(t), w) for t, w in terms]
    out = first.value
    for t, w in terms:
        out = out + (t.value.dot(w) if t.value.ndim else t.value * w)

    def vjp(g):
        grads = [(t, g * w) for t, w in terms if t.requires_grad]
        # `first`'s gradient is `g`, which the node owns: a copy, of a 0-d
        # array or a float alike.
        return [(first, np.array(g)), *grads] if first.requires_grad else grads

    return node(out, (first, *(t for t, _ in terms)), vjp)
