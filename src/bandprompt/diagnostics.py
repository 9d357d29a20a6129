"""Spectral separation diagnostics for band factorization.

For each latent the base and detail bands are (optionally) resampled onto a
common grid, reduced to channel-mean radial power spectra, normalized to unit
mass, and compared bin by bin. The per-sample overlap is the sum of bandwise
minima, so 0 means disjoint spectral support and 1 means identical spectra.
Samples where either band carries (numerically) no energy are skipped rather
than scored.

A spectrum takes two real matmuls with cached DFT tables that fold in the
area weights, so `diagnose` never builds an aligned copy of a band: one
column product over every row of every plane of a stack, then one broadcast
row product over the planes. Both tables are `_pair_rows`: per conjugate
pair {u, n - u} of frequencies a cos row, and a sin row if the pair has two
members (both then scaled by sqrt(2)), so no row is all zero. A pair shares
a radial bin and its real/imaginary cross terms cancel in the sum, so each
squared entry of the product is binned as it stands.

`align_grid`, `radial_spectrum` and `band_overlap` take one (C, h, w) latent
or an (n, C, h, w) stack of them; `diagnose` factorizes latent by latent and
runs the rest once per chunk of `CHUNK_SIZE` latents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bands import as_latent_array, factorize
from .errors import ParameterError
from .teacher import LatentCache

# Threshold on the mean squared amplitude of a band's spatial field.
ENERGY_EPS = 1e-12
# Latents per stacked spectrum pass in `diagnose`. A chunk of 4x16x16
# latents on 14x14 holds its band stack and transforms in under 3 MiB, and
# ran faster per latent than chunks of 256 (about 10 MiB); one pass over a
# 2048-latent cache took a scan from 110 to 169 MiB RSS.
CHUNK_SIZE = 64


# ---------------------------------------------------------------------------
# grid alignment


@lru_cache(maxsize=None)
def _overlap_weights(n_in: int, n_out: int, transposed: bool = False) -> np.ndarray:
    """Read-only (n_out, n_in) area weights: output cell i averages input over
    [i*n_in/n_out, (i+1)*n_in/n_out). Rows sum to 1, columns to n_out/n_in,
    so both row means and the global mean are preserved exactly. With
    `transposed`, their C-contiguous transpose, so that numpy's batched
    matmul runs a product with it in BLAS."""
    if n_out < 1:
        raise ParameterError(f"target grid sides must be positive, got {n_out}")
    scale = n_in / n_out
    i, j = np.arange(n_out)[:, None], np.arange(n_in)
    cover = np.minimum((i + 1) * scale, j + 1) - np.maximum(i * scale, j)
    table = np.maximum(cover, 0.0) / scale
    table = np.ascontiguousarray(table.T) if transposed else table
    table.setflags(write=False)
    return table


def align_grid(z, target: tuple[int, int]) -> np.ndarray:
    """Area-average resample of a (C, h, w) latent onto (C, H, W), or of an
    (n, C, h, w) stack onto (n, C, H, W)."""
    arr = as_latent_array(z).astype(np.float64, copy=False)
    th, tw = target
    h, w = arr.shape[-2:]
    return _overlap_weights(h, th) @ arr @ _overlap_weights(w, tw, transposed=True)


# ---------------------------------------------------------------------------
# radial power spectra


@dataclass(frozen=True)
class RadialSpectrum:
    """Unit-mass radial energy histogram of a latent's power spectrum.

    For a stack, `energies` is (n, num_bins) and `total_energy` an (n,)
    array, so `degenerate` is a flag per latent.
    """

    energies: np.ndarray
    total_energy: float | np.ndarray

    @property
    def num_bins(self) -> int:
        return self.energies.shape[-1]

    @property
    def degenerate(self) -> bool | np.ndarray:
        return self.total_energy < ENERGY_EPS


def _pair_freqs(n: int) -> np.ndarray:
    """Frequency of each row of `_pair_rows(., n)`: u = 0..n//2 for the cos
    rows, then each u with a distinct conjugate n - u for the sin rows."""
    u = np.arange(n // 2 + 1)
    return np.concatenate([u, u[(u > 0) & (2 * u < n)]])


@lru_cache(maxsize=None)
def _pair_rows(n_in: int, n_out: int) -> np.ndarray:
    """Read-only (n_out, n_in): the real DFT rows of an n_out-point transform
    times the area weights that resample n_in cells onto n_out (the identity
    when n_in == n_out). The cos rows of u = 0..n_out//2 come first, then the
    sin rows of each u with a distinct conjugate n_out - u (`_pair_freqs`);
    both rows of such a u carry a factor sqrt(2), so their squares hold the
    power of u and n_out - u. The sin rows of u = 0 and of the Nyquist
    frequency are zero (up to rounding) and are left out."""
    half = n_out // 2 + 1
    weights = _overlap_weights(n_in, n_out)
    # (u*x) % n_out reduces each angle exactly before it is scaled.
    angle = (2.0 * np.pi / n_out) * (np.outer(np.arange(half), np.arange(n_out)) % n_out)
    rows = np.concatenate([np.cos(angle), np.sin(angle)]) @ weights
    u = _pair_freqs(n_out)
    rows = rows[np.concatenate([u[:half], half + u[half:]])]
    rows *= np.where((u > 0) & (2 * u < n_out), np.sqrt(2.0), 1.0)[:, None]
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _pair_bins(h: int, w: int, num_bins: int) -> np.ndarray:
    """Read-only bin index per entry of a channel's (h, w) transform by
    `_pair_rows(., h)` and `_pair_rows(., w)`. Radii are cycles-per-sample
    frequencies over the Nyquist-corner radius (0 on a one-cell grid); bins
    are equal width over (0, 1] and the DC entry lands in bin 1 (index 0)."""
    fu = np.abs(np.fft.fftfreq(h))[_pair_freqs(h)][:, None]
    fv = np.abs(np.fft.fftfreq(w))[_pair_freqs(w)][None, :]
    r_max = np.sqrt(fu.max() ** 2 + fv.max() ** 2)
    r = np.sqrt(fu * fu + fv * fv) / r_max if r_max > 0 else np.zeros((h, w))
    bins = np.clip(np.ceil(r * num_bins).astype(np.intp), 1, num_bins).reshape(-1) - 1
    bins.setflags(write=False)
    return bins


def radial_spectrum(z, num_bins: int, grid: tuple[int, int] | None = None) -> RadialSpectrum:
    """Channel-mean power spectrum folded into radial bins, normalized to 1.

    With a `grid` it is the spectrum of `align_grid(z, grid)`, without the
    aligned copy. The transform is two real matmuls with one row or column
    per conjugate pair of frequencies; power and radius are point-symmetric,
    so the squared entries give each bin and the Parseval total.
    """
    if num_bins < 1:
        raise ParameterError(f"num_bins must be >= 1, got {num_bins}")
    arr = np.ascontiguousarray(as_latent_array(z), dtype=np.float64)
    h, w = arr.shape[-2:]
    th, tw = (h, w) if grid is None else grid
    rows, cols = _pair_rows(h, th), _pair_rows(w, tw)
    bins = _pair_bins(th, tw, num_bins)
    # One product over the rows of every plane, then one broadcast product
    # over the planes.
    y = rows @ (arr.reshape(-1, w) @ cols.T).reshape(arr.shape[:-1] + (tw,))
    # A pair's cross terms cancel, so its power is the sum of its squares;
    # the channel sum runs in np.mean's order.
    y *= y
    power = np.add.reduce(y, axis=-3)
    power /= arr.shape[-3]
    power = power.reshape(-1, th * tw)
    total = power.sum(axis=1)
    msa = total / float(th * tw) ** 2  # Parseval: mean |z|^2 over pixels
    # Row r's entries go to bins r*num_bins + bin; bincount sums them in order.
    index = np.arange(len(power))[:, None] * num_bins + bins
    energies = np.bincount(index.reshape(-1), weights=power.reshape(-1),
                           minlength=len(power) * num_bins).reshape(len(power), num_bins)
    live = msa >= ENERGY_EPS
    energies[live] /= total[live, None]
    energies[~live] = 0.0
    if arr.ndim == 3:
        return RadialSpectrum(energies=energies[0], total_energy=float(msa[0]))
    return RadialSpectrum(energies=energies, total_energy=msa)


def band_overlap(base: RadialSpectrum, detail: RadialSpectrum) -> float | np.ndarray:
    """Sum of bandwise minima between two unit-mass spectra, clipped to [0, 1];
    one value per latent for stacked spectra.

    The bins of a unit-mass spectrum sum to 1 only up to f64 roundoff, so the
    raw minima sum can land a few ulp outside the unit interval.
    """
    if base.num_bins != detail.num_bins:
        raise ParameterError("spectra must use the same number of bins")
    total = np.clip(np.minimum(base.energies, detail.energies).sum(axis=-1), 0.0, 1.0)
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# cache-level report


@dataclass(frozen=True)
class OverlapReport:
    num_bins: int
    kernel: int
    mean_base: np.ndarray
    mean_detail: np.ndarray
    overlaps: np.ndarray
    skipped_count: int

    @property
    def samples(self) -> int:
        return self.overlaps.shape[0]

    @property
    def overlap_mean(self) -> float:
        return float(self.overlaps.mean()) if self.samples else float("nan")

    @property
    def overlap_std(self) -> float:
        return float(self.overlaps.std()) if self.samples else float("nan")

    @property
    def band_minima(self) -> np.ndarray:
        return np.minimum(self.mean_base, self.mean_detail)


def diagnose(cache: LatentCache, kernel: int, num_bins: int,
             align: tuple[int, int] | None = None) -> OverlapReport:
    """Factorize every cached latent and score base/detail spectral overlap.

    A sample is skipped (not scored, counted in `skipped_count`) when either
    band is spectrally degenerate; a base-only latent, for example, leaves
    nothing in the detail band to compare against.
    """
    if len(cache) == 0:
        raise ParameterError("cannot diagnose an empty cache")
    overlaps: list[np.ndarray] = []
    base_acc: list[np.ndarray] = []
    detail_acc: list[np.ndarray] = []
    skipped = 0
    for start in range(0, len(cache), CHUNK_SIZE):
        latents = cache.arrays()[start:start + CHUNK_SIZE]
        n = len(latents)
        # Bases in rows [0, n), details in rows [n, 2n) of one stack.
        bands = np.empty((2 * n, *cache.grid))
        for i, z in enumerate(latents):
            pair = factorize(z, kernel)
            bands[i], bands[n + i] = pair.base, pair.detail
        spectra = radial_spectrum(bands, num_bins, align)
        sb = RadialSpectrum(spectra.energies[:n], spectra.total_energy[:n])
        sd = RadialSpectrum(spectra.energies[n:], spectra.total_energy[n:])
        keep = ~(sb.degenerate | sd.degenerate)
        skipped += n - int(keep.sum())
        overlaps.append(band_overlap(sb, sd)[keep])
        base_acc.append(sb.energies[keep])
        detail_acc.append(sd.energies[keep])
    kept_base = np.concatenate(base_acc)
    if len(kept_base):
        mean_base = kept_base.mean(axis=0)
        mean_detail = np.concatenate(detail_acc).mean(axis=0)
    else:
        mean_base = np.zeros(num_bins)
        mean_detail = np.zeros(num_bins)
    return OverlapReport(
        num_bins=num_bins, kernel=kernel, mean_base=mean_base,
        mean_detail=mean_detail, overlaps=np.concatenate(overlaps),
        skipped_count=skipped,
    )


def format_report(report: OverlapReport, header_lines: list[str] | None = None) -> str:
    """Plain-text table: one row per radial bin, then summary footers."""
    lines: list[str] = list(header_lines or [])
    lines.append("band_index e_base e_detail min")
    minima = report.band_minima
    for i in range(report.num_bins):
        lines.append(
            f"{i + 1} {report.mean_base[i]:.6f} {report.mean_detail[i]:.6f} {minima[i]:.6f}"
        )
    lines.append(f"overlap_mean {report.overlap_mean:.6f}")
    lines.append(f"overlap_std {report.overlap_std:.6f}")
    lines.append(f"skipped_count {report.skipped_count}")
    return "\n".join(lines) + "\n"


def write_report(path, report: OverlapReport, header_lines: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report, header_lines))
