"""Detail-granule conditioning of visual embeddings, and the residual composite.

A fusion net folds a high-band granule into its class anchor,

    c_i = LayerNorm(s_i + MLP_fuse([s_i ; t_high_i])),

and a modulation net emits feature-wise scale/shift from the fused code,

    v_g = L2Norm((1 + tanh(gamma)) * v + beta),  [gamma ; beta] = MLP_mod(c_i).

Final layers of both nets start at zero (`trainer.param_table`), so training
begins at identity modulation. Counterfactual batches swap granules by a batch permutation while
anchors and visual embeddings stay in place; the target for position i
becomes the label of the granule donor pi(i). Training stacks the factual
and counterfactual batches into one pass of 2B rows: the anchors and visual
rows repeat per block and the granules come from donors [0..B-1 ; pi].
Granule conditioning is training-time only; `evaluate` uses it solely to
score granule sources.

`fuse_rows` is the model's one residual composite: `refine` runs it with the
`agg` parameter group to anchor class-text rows to their bank contexts.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ParameterError


def fuse_rows(anchors, granules, w1, b1, w2, b2, ln_gain, ln_bias) -> ad.Tensor:
    """Tape composite, one node: LayerNorm(anchors + MLP([anchors ; granules]))."""
    anchors, granules, w1, b1, w2, b2, ln_gain, ln_bias = map(
        ad.lift, (anchors, granules, w1, b1, w2, b2, ln_gain, ln_bias))
    a = anchors.value
    if a.ndim != 2 or granules.value.ndim != 2:
        raise ParameterError("fuse_rows expects (n, d) anchor and granule rows")
    joint = np.concatenate([a, granules.value], axis=1)
    residual, hidden = ad.mlp_forward(joint, w1.value, b1.value, w2.value, b2.value)
    out, normed, std = ad.layer_norm_forward(a + residual, ln_gain.value, ln_bias.value)

    def vjp(g):
        gs = ad.layer_norm_vjp(g, ln_gain.value, normed, std)
        need_joint = anchors.requires_grad or granules.requires_grad
        grads, gjoint = ad.mlp_vjp(gs, joint, hidden, w1, b1, w2, b2, need_joint)
        ones = ad.ONES[g.shape[0]]
        if ln_gain.requires_grad:
            grads.append((ln_gain, ones.dot(g * normed)))
        if ln_bias.requires_grad:
            grads.append((ln_bias, ones.dot(g)))
        na = a.shape[1]
        if anchors.requires_grad:
            grads.append((anchors, gs + gjoint[:, :na]))
        if granules.requires_grad:
            grads.append((granules, gjoint[:, na:]))
        return grads

    return ad.node(out, (anchors, granules, w1, b1, w2, b2, ln_gain, ln_bias), vjp)


def film_rows(codes, visual, w1, b1, w2, b2) -> ad.Tensor:
    """Tape composite, one node: unit-normalized (1 + tanh(gamma)) * v + beta."""
    codes, visual, w1, b1, w2, b2 = map(ad.lift, (codes, visual, w1, b1, w2, b2))
    v = visual.value
    dim = v.shape[1]
    gb, hidden = ad.mlp_forward(codes.value, w1.value, b1.value, w2.value, b2.value)
    t = np.tanh(gb[:, :dim])
    scale = t + 1.0
    out, norms = ad.unit_rows(scale * v + gb[:, dim : 2 * dim])

    def vjp(g):
        gs = ad.unit_rows_vjp(g, out, norms)
        ggb = np.concatenate([(gs * v) * (1.0 - t * t), gs], axis=1)
        grads, gcodes = ad.mlp_vjp(ggb, codes.value, hidden, w1, b1, w2, b2,
                                   codes.requires_grad)
        if gcodes is not None:
            grads.append((codes, gcodes))
        if visual.requires_grad:
            grads.append((visual, gs * scale))
        return grads

    return ad.node(out, (codes, visual, w1, b1, w2, b2), vjp)


def check_permutation(pi, n: int) -> np.ndarray:
    """`pi` as an intp array if it is a permutation of 0..n-1: n values in
    0..n-1 (so `bincount` makes n bins), none of them twice."""
    pi = np.asarray(pi, dtype=np.intp)
    if (pi.shape == (n,) and np.minimum.reduce(pi, initial=0) >= 0
            and np.maximum.reduce(pi, initial=-1) < n
            and np.maximum.reduce(np.bincount(pi, minlength=n), initial=0) <= 1):
        return pi
    raise ParameterError("pi must be a permutation of 0..n-1")
