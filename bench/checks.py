"""Output checks for the benchmark workloads, written apart from the program.

Every checker returns a list of problems (empty when the output is right).
The references here are plain numpy written for the benchmark, or properties
of the method (a harmonic mean, the even/odd class split, the cache file
layout); none of them calls `bandprompt` or compares against stored copies
of earlier output.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# references


def cache_file_bytes(records) -> int:
    """Size of a cache file by its documented layout: 12-byte header, then per
    record a u16 id length, the UTF-8 id, four u32 and C*h*w float32."""
    return 12 + sum(2 + len(sid.encode("utf-8")) + 16 + 4 * data.size for sid, _, data in records)


def area_weights(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in): output cell i is the mean of input over
    [i*n_in/n_out, (i+1)*n_in/n_out), by interval intersection."""
    edges = np.arange(n_out + 1) * (n_in / n_out)
    lo, hi = edges[:-1, None], edges[1:, None]
    j = np.arange(n_in)[None, :]
    cover = np.clip(np.minimum(hi, j + 1) - np.maximum(lo, j), 0.0, None)
    return cover / (n_in / n_out)


def aligned(x: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    wr = area_weights(x.shape[1], target[0])
    wc = area_weights(x.shape[2], target[1])
    return np.stack([wr @ channel @ wc.T for channel in x])


def radial_energies(x: np.ndarray, num_bins: int) -> np.ndarray:
    """Channel-mean power spectrum in `num_bins` equal radial bins over
    (0, 1] of the corner-normalized frequency radius, DC in the first bin,
    normalized to unit mass."""
    _, h, w = x.shape
    power = np.zeros((h, w))
    for channel in x:
        power += np.abs(np.fft.fft2(channel)) ** 2
    power /= x.shape[0]
    fu = ((np.arange(h) + h // 2) % h - h // 2) / h
    fv = ((np.arange(w) + w // 2) % w - w // 2) / w
    radius = np.hypot(fu[:, None], fv[None, :]) / np.hypot(np.abs(fu).max(), np.abs(fv).max())
    bins = np.clip(np.ceil(radius * num_bins).astype(int), 1, num_bins) - 1
    energies = np.bincount(bins.ravel(), weights=power.ravel(), minlength=num_bins)
    return energies / power.sum()


def unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# checkers


def protocol_problems(result, num_classes: int, per_class: int, shots: int,
                      min_acc_factor: float = 3.0) -> list[str]:
    """Base-to-novel result against the protocol's own arithmetic.

    Even classes are base and odd classes novel; each keeps `per_class -
    shots` samples for scoring. Both accuracies must clear `min_acc_factor`
    times chance in their own label space.
    """
    problems = []
    b, n = result.base_acc, result.novel_acc
    hm = 2.0 * b * n / (b + n) if b + n > 0 else 0.0
    if not math.isclose(result.hm, hm, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"hm {result.hm!r} != 2bn/(b+n) = {hm!r}")
    n_base = (num_classes + 1) // 2
    n_novel = num_classes // 2
    if result.base_count != n_base * (per_class - shots):
        problems.append(f"base_count {result.base_count} != {n_base} x {per_class - shots}")
    if result.novel_count != n_novel * (per_class - shots):
        problems.append(f"novel_count {result.novel_count} != {n_novel} x {per_class - shots}")
    for name, acc, k in (("base", b, n_base), ("novel", n, n_novel)):
        floor = min_acc_factor * 100.0 / k
        if not acc >= floor:
            problems.append(f"{name} accuracy {acc:.2f} % not above {floor:.2f} % "
                            f"({min_acc_factor} x chance over {k} classes)")
    return problems


def bitwise_problems(what: str, ref: dict, got: dict) -> list[str]:
    """Arrays under the same keys must be bitwise equal."""
    if set(ref) != set(got):
        return [f"{what}: keys differ: {sorted(set(ref) ^ set(got))}"]
    return [f"{what}: {k} differs" for k in sorted(ref)
            if np.asarray(ref[k]).tobytes() != np.asarray(got[k]).tobytes()
            or np.shape(ref[k]) != np.shape(got[k])]


def count_problems(what: str, got: int, expected: int) -> list[str]:
    return [] if got == expected else [f"{what}: got {got}, expected {expected}"]


def cache_problems(written, read) -> list[str]:
    """`written`/`read` are sequences of (sample_id, label, float32 array)."""
    if len(written) != len(read):
        return [f"cache re-read holds {len(read)} records, wrote {len(written)}"]
    for i, ((sa, la, za), (sb, lb, zb)) in enumerate(zip(written, read)):
        if sa != sb or la != lb or za.shape != zb.shape or za.tobytes() != zb.tobytes():
            return [f"cache record {i} ({sa!r}) changed in the round trip"]
    return []


def split_problems(z: np.ndarray, base: np.ndarray, detail: np.ndarray) -> list[str]:
    """base + detail must rebuild the latent bitwise."""
    z64 = np.asarray(z, dtype=np.float64)
    if base.shape != z64.shape or detail.shape != z64.shape:
        return ["band shapes differ from the latent"]
    if not np.array_equal(base + detail, z64):
        return [f"base + detail != z in {int(np.sum(base + detail != z64))} cells"]
    return []


def box_mean(z: np.ndarray, k: int) -> np.ndarray:
    """Stride-1 k x k mean per channel with edge-replicating padding, by
    summed-area tables."""
    r = k // 2
    padded = np.pad(np.asarray(z, dtype=np.float64), ((0, 0), (r, r), (r, r)), mode="edge")
    table = np.zeros((padded.shape[0], padded.shape[1] + 1, padded.shape[2] + 1))
    table[:, 1:, 1:] = padded.cumsum(axis=1).cumsum(axis=2)
    h, w = z.shape[1:]
    sums = table[:, k:k + h, k:k + w] - table[:, :h, k:k + w] - table[:, k:k + h, :w] + table[:, :h, :w]
    return sums / (k * k)


def box_base_problems(z: np.ndarray, base: np.ndarray, k: int) -> list[str]:
    """The base band is the box mean rounded to float32; a cell may also be
    zeroed where the mean is 2^-20 below the cell and cannot subtract
    exactly."""
    ref = box_mean(z, k)
    z64 = np.asarray(z, dtype=np.float64)
    near = np.abs(base - ref) <= 2.0**-23 * np.abs(ref) + 1e-12
    zeroed = (base == 0.0) & (np.abs(ref) <= 2.0**-19 * np.abs(z64))
    if not np.all(near | zeroed):
        return [f"base band differs from the {k}x{k} box mean in {int(np.sum(~(near | zeroed)))} cells"]
    return []


def overlap_problems(overlaps: np.ndarray, skipped: int, n: int) -> list[str]:
    problems = []
    if skipped != 0:
        problems.append(f"skipped_count {skipped} != 0")
    if overlaps.shape != (n - skipped,):
        problems.append(f"{overlaps.shape} overlaps for {n} latents")
    if not np.all((overlaps >= 0.0) & (overlaps <= 1.0)):
        problems.append("an overlap lies outside [0, 1]")
    return problems


def spectrum_problems(base: np.ndarray, detail: np.ndarray, align: tuple[int, int],
                      num_bins: int, got_base: np.ndarray, got_detail: np.ndarray,
                      got_overlap: float, tol: float = 1e-9) -> list[str]:
    """Program spectra and overlap of one latent's bands against the plain
    reference: area-align, radial power histogram, sum of binwise minima."""
    ref_base = radial_energies(aligned(base, align), num_bins)
    ref_detail = radial_energies(aligned(detail, align), num_bins)
    problems = []
    for name, ref, got in (("base", ref_base, got_base), ("detail", ref_detail, got_detail)):
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=tol, atol=tol):
            problems.append(f"{name} radial spectrum differs from the reference")
    ref_overlap = float(np.clip(np.minimum(ref_base, ref_detail).sum(), 0.0, 1.0))
    if not abs(got_overlap - ref_overlap) <= tol:
        problems.append(f"overlap {got_overlap!r} != reference {ref_overlap!r}")
    return problems


def prediction_problems(latents: np.ndarray, encoder_weight: np.ndarray, rows: np.ndarray,
                        labels: np.ndarray, pred: np.ndarray, accuracy: float,
                        min_acc_factor: float = 3.0) -> list[str]:
    """Predictions must be argmax(v @ rows.T) with v the unit-normalized
    encoder output; a disagreement counts only where the two classes' scores
    are apart by more than rounding."""
    v = unit_rows(latents.reshape(len(latents), -1).astype(np.float64) @ encoder_weight.T)
    scores = v @ rows.T
    ref = np.argmax(scores, axis=1)
    pred = np.asarray(pred)
    problems = []
    if pred.shape != ref.shape:
        return [f"{pred.shape} predictions for {ref.shape[0]} latents"]
    rows_idx = np.arange(len(ref))
    gap = np.abs(scores[rows_idx, ref] - scores[rows_idx, pred])
    wrong = (pred != ref) & (gap > 1e-9)
    if np.any(wrong):
        problems.append(f"{int(wrong.sum())} predictions are not argmax(v @ rows.T)")
    ref_acc = 100.0 * float(np.mean(pred == labels))
    if accuracy != ref_acc:
        problems.append(f"accuracy {accuracy!r} != recomputed {ref_acc!r}")
    floor = min_acc_factor * 100.0 / rows.shape[0]
    if not ref_acc >= floor:
        problems.append(f"accuracy {ref_acc:.2f} % not above {floor:.2f} %")
    return problems
