"""Spectral separation diagnostics for band factorization.

For each latent the base and detail bands are (optionally) resampled onto a
common grid, reduced to channel-mean radial power spectra, normalized to unit
mass, and compared bin by bin. The per-sample overlap is the sum of bandwise
minima, so 0 means disjoint spectral support and 1 means identical spectra.
Samples where either band carries (numerically) no energy are skipped rather
than scored.

A spectrum takes two real matmuls per channel with cached DFT rows that fold
in the area weights, so `diagnose` never builds an aligned copy of a band.

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
# Latents per stacked spectrum pass in `diagnose`. A chunk bounds the band
# stack and one channel's transforms to about 10 MiB for 4x16x16 latents on
# 14x14; one pass over a 2048-latent cache took a scan from 110 to 169 MiB RSS.
CHUNK_SIZE = 256


# ---------------------------------------------------------------------------
# grid alignment


def _overlap_weights(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) area weights: output cell i averages input over
    [i*n_in/n_out, (i+1)*n_in/n_out). Rows sum to 1, columns to n_out/n_in,
    so both row means and the global mean are preserved exactly."""
    if n_out < 1:
        raise ParameterError(f"target grid sides must be positive, got {n_out}")
    w = np.zeros((n_out, n_in))
    scale = n_in / n_out
    for i in range(n_out):
        lo = i * scale
        hi = (i + 1) * scale
        j0 = int(np.floor(lo))
        j1 = min(int(np.ceil(hi)), n_in)
        for j in range(j0, j1):
            cover = min(hi, j + 1) - max(lo, j)
            if cover > 0:
                w[i, j] = cover / scale
    return w


def align_grid(z, target: tuple[int, int]) -> np.ndarray:
    """Area-average resample of a (C, h, w) latent onto (C, H, W), or of an
    (n, C, h, w) stack onto (n, C, H, W)."""
    arr = as_latent_array(z).astype(np.float64, copy=False)
    th, tw = target
    h, w = arr.shape[-2:]
    wr = _overlap_weights(h, th)
    wc = _overlap_weights(w, tw)
    return wr @ arr @ wc.T


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


@lru_cache(maxsize=None)
def _dft_rows(n_in: int, n_out: int, keep: int) -> np.ndarray:
    """Read-only (2*keep, n_in): the cos rows, then the sin rows, of the
    first `keep` frequencies of an n_out-point DFT, times the area weights
    that resample n_in cells onto n_out (the identity when n_in == n_out)."""
    weights = _overlap_weights(n_in, n_out)
    # (u*x) % n_out reduces each angle exactly before it is scaled.
    angle = (2.0 * np.pi / n_out) * (np.outer(np.arange(keep), np.arange(n_out)) % n_out)
    rows = np.concatenate([np.cos(angle), np.sin(angle)]) @ weights
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _radial_bins(h: int, w: int, num_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only bin index per cell of the (h, w // 2 + 1) half plane, and
    column weights: 2 where a column stands for its dropped mirror too.
    Radii are cycles-per-sample frequencies over the Nyquist-corner radius
    (0 on a one-cell grid); bins are equal width over (0, 1] and the DC cell
    lands in bin 1 (stored as index 0)."""
    keep = w // 2 + 1
    fu = np.fft.fftfreq(h)[:, None]
    fv = np.fft.fftfreq(w)[None, :keep]
    r_max = np.sqrt(np.max(np.abs(fu)) ** 2 + np.max(np.abs(fv)) ** 2)
    r = np.sqrt(fu * fu + fv * fv) / r_max if r_max > 0 else np.zeros((h, keep))
    bins = np.clip(np.ceil(r * num_bins).astype(np.intp), 1, num_bins) - 1
    v = np.arange(keep)
    weights = np.where((v == 0) | (2 * v == w), 1.0, 2.0)
    bins.setflags(write=False)
    weights.setflags(write=False)
    return bins, weights


def radial_spectrum(z, num_bins: int, grid: tuple[int, int] | None = None) -> RadialSpectrum:
    """Channel-mean power spectrum folded into radial bins, normalized to 1.

    With a `grid` it is the spectrum of `align_grid(z, grid)`, without the
    aligned copy. Each channel's DFT is two real matmuls over the half plane
    of non-negative column frequencies; power and radius are point-symmetric,
    so the weighted half plane gives each bin and the Parseval total.
    """
    if num_bins < 1:
        raise ParameterError(f"num_bins must be >= 1, got {num_bins}")
    arr = as_latent_array(z).astype(np.float64, copy=False)
    h, w = arr.shape[-2:]
    th, tw = (h, w) if grid is None else grid
    keep = tw // 2 + 1
    rows, cols = _dft_rows(h, th, th), _dft_rows(w, tw, keep)
    # Channel by channel, so a stack's transforms take one channel's share of
    # memory at a time; the sum runs in np.mean's order.
    power = np.zeros(arr.shape[:-3] + (th, keep))
    for c in range(arr.shape[-3]):
        plane = arr[..., c, :, :]
        y = rows @ (plane.reshape(-1, w) @ cols.T).reshape(plane.shape[:-1] + (2 * keep,))
        # y's blocks: [cos; sin] rows by [cos | sin] columns.
        re = y[..., :th, :keep] - y[..., th:, keep:]
        im = y[..., :th, keep:] + y[..., th:, :keep]
        power += re * re + im * im
    bins, weights = _radial_bins(th, tw, num_bins)
    power = (power * weights / arr.shape[-3]).reshape(-1, th * keep)
    total = power.sum(axis=1)
    msa = total / float(th * tw) ** 2  # Parseval: mean |z|^2 over pixels
    # Row r's cells go to bins r*num_bins + bin; bincount sums them in order.
    index = np.arange(len(power))[:, None] * num_bins + bins.reshape(-1)
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
        records = cache.records[start:start + CHUNK_SIZE]
        n = len(records)
        # Bases in rows [0, n), details in rows [n, 2n) of one stack.
        bands = np.empty((2 * n, *cache.grid))
        for i, record in enumerate(records):
            pair = factorize(record.latent.data, kernel)
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
