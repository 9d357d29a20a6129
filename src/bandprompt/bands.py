"""Low-pass/residual band factorization and the per-band projection heads.

A stride-1 k x k box mean with replicate padding splits a latent into a
smooth base band and the residual detail band; the residual definition makes
reconstruction exact. The box sum is exact and the mean rounded once, so the
split and the statistics also take an (n, C, h, w) stack and treat each
latent of it exactly as they treat it alone. Band statistics reduce each band
to a per-channel mean absolute activation, and small tanh MLP heads map those
statistics onto the unit sphere of the text embedding space. Latents are
frozen inputs: only head parameters ever receive gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import ParameterError


def as_latent_array(z) -> np.ndarray:
    """A (C, h, w) latent or an (n, C, h, w) stack; each latent splits alone."""
    arr = np.asarray(z)
    if arr.ndim not in (3, 4):
        raise ParameterError(
            f"expected a (C, h, w) latent or an (n, C, h, w) stack, got shape {arr.shape}"
        )
    return arr


@dataclass(frozen=True)
class BandPair:
    """base + detail == source, with `kernel` recording the smoothing width."""

    base: np.ndarray
    detail: np.ndarray
    kernel: int

    def __post_init__(self):
        if self.base.shape != self.detail.shape:
            raise ParameterError("band shapes disagree")


@lru_cache(maxsize=None)
def _tap_counts(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) counts and their transpose, both C-contiguous, so that
    numpy's batched matmul runs products with either in BLAS: row i holds how
    often each cell falls in the replicate-padded k-window centred on i, so
    every row sums to k."""
    window = np.clip(np.arange(n)[:, None] + np.arange(k) - k // 2, 0, n - 1)
    taps = (window[..., None] == np.arange(n)).sum(axis=1, dtype=np.float64)
    pair = (taps, np.ascontiguousarray(taps.T))
    for table in pair:
        table.setflags(write=False)
    return pair


def smooth_lowpass(z, k: int) -> np.ndarray:
    """Stride-1 k x k mean per channel, replicate (edge) padding, float64 out.

    The window sum `T_h @ z @ T_w.T` weighs cells by small-integer tap counts,
    so for a float32-valued latent whose windows span less than about 2^26 it
    is exact in float64, and the one division by k * k is the only rounding:
    each cell is the correctly rounded mean, in any summation order.
    """
    arr = as_latent_array(z)
    h, w = arr.shape[-2:]
    if k < 1 or k % 2 == 0:
        raise ParameterError(f"kernel must be odd and >= 1, got {k}")
    if k > min(h, w):
        raise ParameterError(f"kernel {k} exceeds spatial extent {min(h, w)}")
    arr = arr.astype(np.float64, copy=False)
    if k == 1:
        return arr.copy()
    return (_tap_counts(h, k)[0] @ arr @ _tap_counts(w, k)[1]) / (k * k)


def factorize(z, k: int) -> BandPair:
    """Split into base (smoothed) and detail (residual) bands.

    Latents are float32-valued, so the base is rounded to float32 granularity:
    the difference z - base then spans at most 53 mantissa bits, and the
    residual subtraction is exact, making base + detail == z bitwise, unless
    the cell and its box mean lie more than about 29 binades apart. A full
    53-bit base at a higher exponent than z could not subtract exactly.
    """
    arr = np.asarray(z, dtype=np.float64)  # `smooth_lowpass` checks its shape
    base = smooth_lowpass(arr, k).astype(np.float32).astype(np.float64)
    detail = arr - base
    bad = (base + detail) != arr
    if np.logical_or.reduce(bad, axis=None):
        # A box mean many binades below its cell, or a cell many binades below
        # its box mean, cannot subtract exactly at any mantissa width: such a
        # cell keeps all of z in its detail band.
        base[bad] = 0.0
        detail[bad] = arr[bad]
    return BandPair(base=base, detail=detail, kernel=k)


def band_stats(z) -> np.ndarray:
    """Per-channel mean absolute activation: a length-C vector, or (n, C)
    rows for a stack."""
    arr = as_latent_array(z).astype(np.float64)
    # What `ndarray.mean` computes, without its Python wrapper.
    return np.add.reduce(np.abs(arr), axis=(-2, -1)) / (arr.shape[-2] * arr.shape[-1])


def uniform_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Small uniform weights scaled by 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def head_graph(stats, w1, b1, w2, b2) -> ad.Tensor:
    """Tape composite, one node, mapping (n, C) statistics rows to unit (n, d)
    rows: L2Norm(MLP(stats))."""
    stats, w1, b1, w2, b2 = map(ad.lift, (stats, w1, b1, w2, b2))
    pre, hidden = ad.mlp_forward(stats.value, w1.value, b1.value, w2.value, b2.value)
    out, norms = ad.unit_rows(pre)

    def vjp(g):
        grads, gstats = ad.mlp_vjp(ad.unit_rows_vjp(g, out, norms), stats.value, hidden,
                                   w1, b1, w2, b2, stats.requires_grad)
        if gstats is not None:
            grads.append((stats, gstats))
        return grads

    return ad.node(out, (stats, w1, b1, w2, b2), vjp)
