"""Detail-granule conditioning of visual embeddings, and the residual composite.

A fusion net folds a high-band granule into its class anchor,

    c_i = LayerNorm(s_i + MLP_fuse([s_i ; t_high_i])),

and a modulation net emits feature-wise scale/shift from the fused code,

    v_g = L2Norm((1 + tanh(gamma)) * v + beta),  [gamma ; beta] = MLP_mod(c_i).

Final layers of both nets start at zero (`trainer.param_table`), so training
begins at identity modulation. Counterfactual batches swap granules by a batch permutation while
anchors and visual embeddings stay in place; the target for position i
becomes the label of the granule donor pi(i). Granule conditioning is
training-time only; `evaluate` uses it solely to score granule sources.

`fuse_rows` is the model's one residual composite: `refine` runs it with the
`agg` parameter group to anchor class-text rows to their bank contexts.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ParameterError


def fuse_rows(anchors, granules, w1, b1, w2, b2, ln_gain, ln_bias) -> ad.Tensor:
    """Tape composite: LayerNorm(anchors + MLP([anchors ; granules]))."""
    anchors = ad.lift(anchors)
    joint = ad.concat_cols(anchors, ad.lift(granules))
    residual = ad.mlp_rows(joint, w1, b1, w2, b2)
    return ad.layer_norm_rows(ad.add(anchors, residual), ln_gain, ln_bias)


def film_rows(codes, visual, w1, b1, w2, b2) -> ad.Tensor:
    """Tape composite: unit-normalized (1 + tanh(gamma)) * v + beta."""
    codes = ad.lift(codes)
    visual = ad.lift(visual)
    dim = visual.value.shape[1]
    gb = ad.mlp_rows(codes, w1, b1, w2, b2)
    gamma = ad.cols(gb, 0, dim)
    beta = ad.cols(gb, dim, 2 * dim)
    scaled = ad.add(ad.mul(ad.add(ad.tanh(gamma), 1.0), visual), beta)
    return ad.l2normalize_rows(scaled)


def check_permutation(pi, n: int) -> np.ndarray:
    pi = np.asarray(pi, dtype=np.intp)
    if pi.shape != (n,) or not np.array_equal(np.sort(pi), np.arange(n)):
        raise ParameterError("pi must be a permutation of 0..n-1")
    return pi
