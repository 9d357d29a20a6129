"""Training objectives.

Four terms, reduced by batch mean in a fixed order:

  cls        cross-entropy of scaled visual/text logits over the class rows,
             (1 - eta) * raw + eta * refined
  sem        1 - cosine between the pseudo-label-weighted expected text vector
             (over normalized raw rows) and the low-band embedding; the
             pseudo-labels are the cls term's detached posteriors, so this
             term never trains the aggregator or the bank path
  granule_f  cross-entropy of modulated embeddings against raw rows
  granule_cf the same on counterfactually swapped granules with donor labels

Total = cls + l_sem * sem + l_gf * granule_f + l_gcf * granule_cf. A term is
built only when its weight is > 0; a term with weight 0 is absent (None) and
contributes exactly zero to value and gradient. The built granule terms are
one tape node over their stacked batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import DivergenceError, NumericalDegeneracyError, ParameterError


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar values of the built terms (weight > 0; None when absent) and the
    weighted total."""

    cls: float
    sem: float | None
    granule_f: float | None
    granule_cf: float | None
    total: float

    def check_finite(self) -> "LossBreakdown":
        for name in ("cls", "sem", "granule_f", "granule_cf", "total"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise DivergenceError(f"loss term {name!r} is non-finite ({v})")
        return self


def _rows(x) -> ad.Tensor:
    t = ad.lift(x)
    if t.value.ndim != 2:
        raise ParameterError(f"expected a (n, d) row batch, got shape {t.value.shape}")
    return t


def _check_scale(scale: float) -> None:
    if scale <= 0.0:
        raise ParameterError(f"logit scale must be > 0, got {scale}")


def class_logits(visual, text_rows, scale: float) -> np.ndarray:
    """Detached scale * v @ rows^T for (n, d) visual rows and (c, d) class
    rows; the logit terms compute the same values inside their one tape node."""
    _check_scale(scale)
    v, rows = _rows(visual).value, _rows(text_rows).value
    if v.shape[1] != rows.shape[1]:
        raise ParameterError(f"visual rows {v.shape} and class rows {rows.shape} "
                             "differ in width")
    logits = v.dot(rows.T)
    logits *= scale
    return logits


def loss_cls(visual, text_rows, labels, scale: float,
             weights=None) -> tuple[ad.Tensor, np.ndarray]:
    """Mean cross-entropy of scaled logits, or its (k, n) `weights` sums as in
    `ad.logit_cross_entropy`; `text_rows` are the prediction rows. Returns the
    node and the detached per-sample class posteriors (the pseudo-labels
    `loss_sem` takes), a plain read-only array that nothing can
    backpropagate through."""
    _check_scale(scale)
    return ad.logit_cross_entropy(visual, text_rows, labels, scale, weights)


def loss_sem(probs: np.ndarray, raw_rows, t_low) -> ad.Tensor:
    """Mean (1 - cos) between the expected text vectors and the low-band
    embeddings `t_low`, as one tape node. An expected text vector is the
    pseudo-label mixture `probs @ unit(raw_rows)` over the L2-normalized raw
    rows; `probs` is a detached array with one distribution per row."""
    probs = np.asarray(probs, dtype=np.float64)
    raw_rows, t_low = _rows(raw_rows), _rows(t_low)
    # `fmin`/`fmax` skip NaN as the mask forms `(probs < -1e-12).any()` and
    # `(abs(sums - 1) > 1e-9).any()` do, and `initial` admits empty batches.
    if (probs.ndim != 2 or probs.shape[1] != raw_rows.shape[0]
            or np.fmin.reduce(probs, axis=None, initial=0.0) < -1e-12
            or np.fmax.reduce(abs(probs.dot(ad.ONES[probs.shape[1]]) - 1.0),
                              initial=0.0) > 1e-9):
        raise ParameterError(f"pseudo-labels {probs.shape} must be a distribution per row "
                             f"over the class rows {raw_rows.shape}")
    rows, norms = ad.unit_rows(raw_rows.value)
    t_exp, low = probs.dot(rows), t_low.value
    if low.shape != t_exp.shape:
        raise ParameterError("low-band embeddings do not match the batch")
    ones = ad.ONES[low.shape[1]]
    na = np.sqrt((t_exp * t_exp).dot(ones))
    nb = np.sqrt((low * low).dot(ones))
    # As `(na < MIN_NORM).any() or (nb < MIN_NORM).any()`: NaN norms pass.
    if np.fmin.reduce(np.fmin(na, nb), initial=np.inf) < ad.MIN_NORM:
        raise NumericalDegeneracyError("cosine of a zero-length vector")
    den = na * nb
    cos = (t_exp * low).dot(ones) / den
    n = cos.size

    def vjp(g):
        gcos = -(g / n)  # the same scalar for every row
        gd = (gcos / den)[:, None]
        gc = (gcos * cos)[:, None]
        grads = []
        if raw_rows.requires_grad:
            gexp = gd * low - gc * t_exp / (na * na)[:, None]
            grads.append((raw_rows, ad.unit_rows_vjp(probs.T.dot(gexp), rows, norms)))
        if t_low.requires_grad:
            grads.append((t_low, gd * t_exp - gc * low / (nb * nb)[:, None]))
        return grads

    return ad.node((1.0 - cos).dot(ad.ONES[n]) / n, (raw_rows, t_low), vjp)


def loss_granule(modulated, raw_rows, labels, scale: float, blocks: int = 1) -> ad.Tensor:
    """Cross-entropy of modulated embeddings against the raw text rows, as the
    vector of its means over `blocks` equal consecutive row blocks. Training
    stacks a block per built term: factual (v_g, true labels y) before
    counterfactual (v_gcf, donor labels y[pi])."""
    size = _rows(modulated).value.shape[0] // blocks
    return loss_cls(modulated, raw_rows, labels, scale, _block_weights(blocks, size))[0]


@lru_cache(maxsize=None)
def _block_weights(blocks: int, size: int) -> np.ndarray:
    """Read-only (blocks, blocks * size) weights of the per-block means."""
    weights = np.repeat(np.eye(blocks), size, axis=1) / size
    weights.setflags(write=False)
    return weights


def combine(cls_term: ad.Tensor,
            sem_term: ad.Tensor | None,
            granule_terms: ad.Tensor | None,
            lambda_sem: float, lambda_gf: float, lambda_gcf: float,
            ) -> tuple[ad.Tensor, LossBreakdown]:
    """Weighted total as a tape scalar plus the float breakdown; `granule_terms`
    is `loss_granule`'s value over the built granule terms. A non-finite term
    makes the total non-finite whatever its weight, so only a non-finite total
    needs the per-term check that names the culprit."""
    weighted, sem, granule_f, granule_cf = [], None, None, None
    if sem_term is not None:
        sem = sem_term.value.item()
        weighted.append((sem_term, lambda_sem))
    if granule_terms is not None:
        values = granule_terms.value.tolist()  # built terms, factual first
        granule_f = values[0] if lambda_gf > 0 else None
        granule_cf = values[-1] if lambda_gcf > 0 else None
        weighted.append((granule_terms, [w for w in (lambda_gf, lambda_gcf) if w > 0]))
    total = ad.weighted_sum(cls_term, weighted) if weighted else cls_term
    parts = LossBreakdown(cls_term.value.item(), sem, granule_f, granule_cf, total.value.item())
    if not math.isfinite(parts.total):
        parts.check_finite()
    return total, parts
