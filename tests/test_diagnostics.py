"""Radial spectra, grid alignment, and band-overlap reports."""

import warnings

import numpy as np
import pytest

from bandprompt import diagnostics
from bandprompt.bands import factorize
from bandprompt.diagnostics import (
    CHUNK_SIZE,
    OverlapReport,
    RadialSpectrum,
    _overlap_weights,
    align_grid,
    band_overlap,
    diagnose,
    format_report,
    radial_spectrum,
    write_report,
)
from bandprompt.errors import ParameterError
from bandprompt.teacher import CacheRecord, LatentCache, LatentTensor, SyntheticSpec, generate_dataset
from reference_ops import traced_peak


def brute_force_radial(arr, num_bins):
    """Independent oracle: per-cell frequency radii and explicit binning."""
    c, h, w = arr.shape
    power = np.zeros((h, w))
    for ch in range(c):
        power += np.abs(np.fft.fft2(arr[ch])) ** 2
    power /= c
    fu = np.fft.fftfreq(h)
    fv = np.fft.fftfreq(w)
    r_max = np.sqrt(np.max(np.abs(fu)) ** 2 + np.max(np.abs(fv)) ** 2)
    out = np.zeros(num_bins)
    for i in range(h):
        for j in range(w):
            r = np.sqrt(fu[i] ** 2 + fv[j] ** 2) / r_max
            b = int(np.ceil(r * num_bins))
            b = min(max(b, 1), num_bins)
            out[b - 1] += power[i, j]
    return out / power.sum()


def test_spectrum_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for shape in ((2, 8, 8), (1, 6, 10), (3, 16, 16)):
        z = rng.normal(size=shape)
        spec = radial_spectrum(z, 10)
        assert np.allclose(spec.energies, brute_force_radial(z, 10), atol=1e-9)
        assert spec.energies.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(spec.energies >= 0.0)


def test_constant_field_is_pure_dc():
    z = np.full((2, 8, 8), 1.5)
    spec = radial_spectrum(z, 10)
    assert not spec.degenerate
    assert spec.energies[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(spec.energies[1:], 0.0, atol=1e-12)


def test_checkerboard_lands_in_the_top_bin():
    n = 8
    cb = np.indices((n, n)).sum(axis=0) % 2
    z = ((-1.0) ** cb)[None, :, :]  # pure Nyquist-corner oscillation
    spec = radial_spectrum(z, 10)
    assert spec.energies[-1] == pytest.approx(1.0, abs=1e-12)


def test_spectrum_is_scale_invariant_but_tracks_energy():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(2, 12, 12))
    a = radial_spectrum(z, 8)
    b = radial_spectrum(3.0 * z, 8)
    assert np.allclose(a.energies, b.energies, atol=1e-12)
    assert b.total_energy == pytest.approx(9.0 * a.total_energy, rel=1e-12)


def test_zero_field_is_degenerate():
    spec = radial_spectrum(np.zeros((1, 8, 8)), 10)
    assert spec.degenerate
    assert np.array_equal(spec.energies, np.zeros(10))
    with pytest.raises(ParameterError):
        radial_spectrum(np.zeros((1, 8, 8)), 0)


def test_align_identity_and_mean_preservation():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(3, 14, 14))
    assert np.allclose(align_grid(z, (14, 14)), z, atol=1e-12)
    down = align_grid(z, (7, 9))
    assert down.shape == (3, 7, 9)
    assert np.allclose(down.mean(axis=(1, 2)), z.mean(axis=(1, 2)), atol=1e-12)
    const = np.full((1, 10, 10), 2.5)
    assert np.allclose(align_grid(const, (14, 14)), 2.5, atol=1e-12)
    with pytest.raises(ParameterError):
        align_grid(z, (0, 14))


def test_align_averages_checkerboard_to_zero():
    cb = ((-1.0) ** (np.indices((4, 4)).sum(axis=0) % 2))[None, :, :]
    out = align_grid(cb, (2, 2))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_band_overlap_identities():
    a = np.zeros(4); a[0] = 1.0
    b = np.zeros(4); b[3] = 1.0
    sa = RadialSpectrum(energies=a, total_energy=1.0)
    sb = RadialSpectrum(energies=b, total_energy=1.0)
    assert band_overlap(sa, sa) == pytest.approx(1.0, abs=1e-12)
    assert band_overlap(sa, sb) == pytest.approx(0.0, abs=1e-12)
    half = RadialSpectrum(energies=np.array([0.5, 0.5, 0.0, 0.0]), total_energy=1.0)
    assert band_overlap(sa, half) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ParameterError):
        band_overlap(sa, RadialSpectrum(energies=np.ones(3) / 3, total_energy=1.0))


def constant_cache(n=3, value=2.0):
    records = []
    for i in range(n):
        data = np.full((2, 8, 8), value, dtype=np.float32)
        records.append(CacheRecord(sample_id=f"const_{i}", class_label=0,
                                   latent=LatentTensor(data=data, sample_id=f"const_{i}")))
    return LatentCache(records=records)


def test_diagnose_skips_degenerate_bands():
    report = diagnose(constant_cache(), kernel=3, num_bins=5)
    # constant fields put everything in the base band; detail is empty
    assert report.skipped_count == 3
    assert report.samples == 0
    assert np.isnan(report.overlap_mean) and np.isnan(report.overlap_std)
    assert np.array_equal(report.mean_base, np.zeros(5))
    with pytest.raises(ParameterError):
        diagnose(LatentCache(records=[]), kernel=7, num_bins=10)


def test_diagnose_separated_dataset_has_low_overlap():
    spec = SyntheticSpec(num_classes=4, noise_std=0.0, seed=0)
    cache = generate_dataset(spec, n_per_class=8)
    report = diagnose(cache, kernel=7, num_bins=10)
    assert report.skipped_count == 0
    assert report.samples == 32
    assert 0.0 <= report.overlap_mean <= 0.2
    assert np.all(report.overlaps >= 0.0) and np.all(report.overlaps <= 1.0)
    # base energy concentrates in low bins, detail in high bins
    assert report.mean_base[:2].sum() > report.mean_base[5:].sum()
    assert report.mean_detail[5:].sum() > report.mean_detail[:2].sum()


def test_diagnose_with_alignment_matches_shape_contract():
    spec = SyntheticSpec(num_classes=2, seed=1)
    cache = generate_dataset(spec, n_per_class=4)
    plain = diagnose(cache, kernel=7, num_bins=10)
    aligned = diagnose(cache, kernel=7, num_bins=10, align=(14, 14))
    assert aligned.samples == plain.samples == 8
    # resampling perturbs but does not destroy the separation
    assert aligned.overlap_mean <= plain.overlap_mean + 0.15


def test_report_formatting_is_deterministic(tmp_path):
    spec = SyntheticSpec(num_classes=2, seed=2)
    cache = generate_dataset(spec, n_per_class=4)
    report = diagnose(cache, kernel=3, num_bins=4)
    text = format_report(report, header_lines=["# k = 3"])
    lines = text.strip().splitlines()
    assert lines[0] == "# k = 3"
    assert lines[1].split() == ["band_index", "e_base", "e_detail", "min"]
    assert len(lines) == 1 + 1 + 4 + 3  # header, columns, bins, footers
    assert lines[-1].startswith("skipped_count ")
    assert format_report(report, header_lines=["# k = 3"]) == text
    path = tmp_path / "diag.txt"
    write_report(path, report)
    assert path.read_text().startswith("band_index")


# ---------------------------------------------------------------------------
# stacked inputs and the chunked report


def per_latent_diagnose(cache, kernel, num_bins, align):
    """The per-latent loop `diagnose` ran before it was batched: two
    alignments, two spectra and one overlap per latent."""
    overlaps, base_acc, detail_acc = [], [], []
    skipped = 0
    for z in cache.arrays():
        pair = factorize(z, kernel)
        base, detail = pair.base, pair.detail
        if align is not None:
            base = align_grid(base, align)
            detail = align_grid(detail, align)
        sb = radial_spectrum(base, num_bins)
        sd = radial_spectrum(detail, num_bins)
        if sb.degenerate or sd.degenerate:
            skipped += 1
            continue
        overlaps.append(band_overlap(sb, sd))
        base_acc.append(sb.energies)
        detail_acc.append(sd.energies)
    mean_base = np.mean(base_acc, axis=0) if base_acc else np.zeros(num_bins)
    mean_detail = np.mean(detail_acc, axis=0) if detail_acc else np.zeros(num_bins)
    return np.asarray(overlaps), mean_base, mean_detail, skipped


def straddling_cache():
    """Random and degenerate latents on both sides of two chunk boundaries;
    the size is no multiple of the chunk."""
    n = 2 * CHUNK_SIZE + 37
    rng = np.random.default_rng(11)
    degenerate = {0, 5, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 2, 2 * CHUNK_SIZE, n - 1}
    records = []
    for i in range(n):
        if i in degenerate:
            # constant (empty detail band) or all-zero (both bands empty)
            data = np.full((2, 8, 8), 0.0 if i % 2 else 1.25, dtype=np.float32)
        else:
            data = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=(2, 8, 8)).astype(np.float32)
        records.append(CacheRecord(sample_id=f"s{i}", class_label=0,
                                   latent=LatentTensor(data=data, sample_id=f"s{i}")))
    return LatentCache(records=records), len(degenerate)


@pytest.mark.parametrize("align", [None, (6, 11)])
def test_chunked_diagnose_matches_the_per_latent_loop(align):
    cache, n_degenerate = straddling_cache()
    assert len(cache) % CHUNK_SIZE != 0
    report = diagnose(cache, kernel=3, num_bins=7, align=align)
    overlaps, mean_base, mean_detail, skipped = per_latent_diagnose(cache, 3, 7, align)
    assert report.skipped_count == skipped == n_degenerate
    assert report.overlaps.shape == overlaps.shape
    np.testing.assert_allclose(report.overlaps, overlaps, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.mean_base, mean_base, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.mean_detail, mean_detail, rtol=0, atol=1e-12)
    again = diagnose(cache, kernel=3, num_bins=7, align=align)
    for name in ("overlaps", "mean_base", "mean_detail"):
        assert np.array_equal(getattr(report, name), getattr(again, name)), name


def test_stacked_align_and_spectrum_equal_per_latent_results():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 3, 12, 10))
    stack[2] = 0.0  # a degenerate member
    aligned = align_grid(stack, (7, 9))
    assert aligned.shape == (5, 3, 7, 9)
    assert np.array_equal(aligned, np.stack([align_grid(z, (7, 9)) for z in stack]))
    # the single-latent path against the weight matrices applied as one contraction
    wr, wc = _overlap_weights(12, 7), _overlap_weights(10, 9)
    np.testing.assert_allclose(align_grid(stack[0], (7, 9)),
                               np.einsum("ij,cjk,lk->cil", wr, stack[0], wc), rtol=0, atol=1e-12)

    spectra = radial_spectrum(stack, 6)
    singles = [radial_spectrum(z, 6) for z in stack]
    assert spectra.energies.shape == (5, 6) and spectra.num_bins == 6
    assert np.array_equal(spectra.energies, np.stack([s.energies for s in singles]))
    assert np.array_equal(spectra.total_energy, [s.total_energy for s in singles])
    assert spectra.degenerate.tolist() == [s.degenerate for s in singles]
    assert spectra.degenerate.tolist() == [False, False, True, False, False]

    shifted = radial_spectrum(stack[::-1], 6)
    pairwise = band_overlap(spectra, shifted)
    assert np.array_equal(pairwise, [band_overlap(a, b) for a, b in zip(singles, singles[::-1])])


def test_stack_rank_is_validated():
    with pytest.raises(ParameterError):
        align_grid(np.zeros((2, 2, 1, 4, 4)), (2, 2))
    with pytest.raises(ParameterError):
        radial_spectrum(np.zeros((4, 4)), 3)


# ---------------------------------------------------------------------------
# spectra on a target grid: DFT matrices with the area weights folded in


@pytest.mark.parametrize("shape, grid", [
    ((2, 16, 16), (14, 14)),  # the benchmark's downsampling
    ((3, 5, 5), (8, 8)),      # upsampling
    ((2, 9, 7), (7, 5)),      # odd onto odd
    ((2, 12, 10), (6, 8)),    # even onto even, non-square
    ((1, 11, 6), (8, 9)),     # even onto odd
    ((2, 1, 12), (1, 7)),     # 1 x N
    ((2, 12, 1), (5, 1)),     # N x 1
    ((2, 10, 10), (10, 10)),  # the same grid resamples nothing
])
def test_spectrum_on_a_grid_matches_the_aligned_brute_force_oracle(shape, grid):
    rng = np.random.default_rng(sum(shape) + sum(grid))
    z = rng.normal(size=shape)
    aligned = align_grid(z, grid)
    for num_bins in (1, 6, 10):
        spec = radial_spectrum(z, num_bins, grid)
        np.testing.assert_allclose(spec.energies, brute_force_radial(aligned, num_bins),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.total_energy, np.mean(aligned ** 2), rtol=1e-12)
        plain = radial_spectrum(aligned, num_bins)
        np.testing.assert_allclose(spec.energies, plain.energies, rtol=0, atol=1e-12)
    with pytest.raises(ParameterError):
        radial_spectrum(z, 6, (0, grid[1]))


def test_one_cell_grid_puts_all_energy_in_bin_one():
    diagnostics._pair_bins.cache_clear()
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (radial_spectrum(rng.normal(size=(3, 1, 1)), 4),
                     radial_spectrum(rng.normal(size=(3, 6, 5)), 4, (1, 1)),
                     radial_spectrum(rng.normal(size=(2, 3, 1, 1)), 4)):
            assert not np.any(spec.degenerate)
            np.testing.assert_array_equal(spec.energies[..., 0], 1.0)
            np.testing.assert_array_equal(spec.energies[..., 1:], 0.0)


@pytest.mark.parametrize("grid", [(7, 9), (14, 14), (12, 1), (1, 7)])
def test_stacked_spectrum_on_a_grid_equals_its_singles_bitwise(grid):
    rng = np.random.default_rng(6)
    stack = rng.normal(size=(5, 3, 12, 10))
    stack[2] = 0.0  # a degenerate member
    spectra = radial_spectrum(stack, 6, grid)
    singles = [radial_spectrum(z, 6, grid) for z in stack]
    assert np.array_equal(spectra.energies, np.stack([s.energies for s in singles]))
    assert np.array_equal(spectra.total_energy, [s.total_energy for s in singles])
    assert spectra.degenerate.tolist() == [False, False, True, False, False]


def test_a_chunk_of_bands_equals_its_singles_bitwise():
    # A chunk's column product has thousands of rows, a single latent's a
    # few dozen, so BLAS may run them through different kernels.
    stack = np.random.default_rng(9).normal(size=(2 * CHUNK_SIZE, 4, 16, 16))
    spectra = radial_spectrum(stack, 10, (14, 14))
    assert np.array_equal(spectra.energies, np.stack([radial_spectrum(z, 10, (14, 14)).energies
                                                      for z in stack]))


def test_dft_and_bin_tables_are_cached_and_read_only():
    rows = diagnostics._pair_rows(16, 14)
    assert rows.shape == (14, 16) and not rows.flags.writeable
    assert diagnostics._pair_rows(16, 14) is rows
    bins = diagnostics._pair_bins(14, 14, 10)
    assert bins.shape == (14 * 14,) and not bins.flags.writeable
    assert diagnostics._pair_bins(14, 14, 10) is bins
    # Each entry takes the bin of its pair's half-plane radius: rows and
    # columns of u = 0..7, then of the paired u = 1..6 again.
    u = diagnostics._pair_freqs(14)
    assert u.tolist() == list(range(8)) + list(range(1, 7))
    r = np.hypot(u[:, None], u[None, :]) / np.hypot(7, 7)
    assert bins.tolist() == (np.clip(np.ceil(r * 10), 1, 10) - 1).reshape(-1).tolist()


def test_overlap_tables_are_cached_read_only_and_transposed_contiguously():
    wr = _overlap_weights(16, 14)
    wt = _overlap_weights(16, 14, transposed=True)
    assert _overlap_weights(16, 14) is wr and _overlap_weights(16, 14, transposed=True) is wt
    assert not wr.flags.writeable and not wt.flags.writeable
    assert wt.flags.c_contiguous and np.array_equal(wt, wr.T)
    # With a table of at most three taps per cell, the product BLAS runs with
    # the contiguous transpose is bitwise numpy's loop over the view.
    stack = np.random.default_rng(8).normal(size=(8, 4, 16, 16))
    assert np.array_equal(align_grid(stack, (14, 14)), wr @ stack @ wr.T)
    assert np.array_equal(align_grid(stack[0], (14, 14)), wr @ stack[0] @ wr.T)


@pytest.mark.parametrize("shape, grid", [
    ((2, 6, 5), (1, 5)),    # one row: DC alone, no pair
    ((2, 6, 5), (2, 6)),    # two rows: DC and Nyquist, no pair
    ((2, 5, 6), (6, 1)),    # one column
    ((2, 5, 6), (6, 2)),    # two columns
    ((2, 2, 2), None),      # 2 x 2: no pair either way
    ((3, 6, 7), (9, 8)),    # odd rows, upsampled: pairs and no Nyquist row
    ((2, 4, 4), (11, 11)),  # odd upsampling both ways
    ((2, 7, 3), None),      # odd rows on their own grid
])
def test_paired_rows_match_the_brute_force_oracle_at_their_edges(shape, grid):
    rng = np.random.default_rng(sum(shape) + (0 if grid is None else sum(grid)))
    z = rng.normal(size=shape)
    aligned = z if grid is None else align_grid(z, grid)
    for num_bins in (1, 3, 7):
        spec = radial_spectrum(z, num_bins, grid)
        np.testing.assert_allclose(spec.energies, brute_force_radial(aligned, num_bins),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.total_energy, np.mean(aligned ** 2), rtol=1e-12)


@pytest.mark.parametrize("n_in, n_out, paired", [
    (16, 14, 6), (5, 9, 4), (10, 10, 4), (6, 3, 1), (7, 2, 0), (7, 1, 0),
])
def test_pair_rows_hold_one_row_per_conjugate_pair(n_in, n_out, paired):
    rows = diagnostics._pair_rows(n_in, n_out)
    assert rows.shape == (n_out // 2 + 1 + paired, n_in) == (n_out, n_in)
    assert not rows.flags.writeable
    assert diagnostics._pair_rows(n_in, n_out) is rows
    bins = diagnostics._pair_bins(n_out, 6, 4)
    # columns: cos of v = 0..3, then sin of v = 1, 2
    assert bins.shape == (n_out * 6,) and not bins.flags.writeable
    assert diagnostics._pair_bins(n_out, 6, 4) is bins
    assert np.array_equal(bins.reshape(n_out, 6)[:, 4:], bins.reshape(n_out, 6)[:, 1:3])


@pytest.mark.parametrize("n_in, n_out", [
    (16, 14), (10, 10), (9, 7), (5, 9), (12, 1), (1, 1), (7, 2), (4, 11),
])
def test_no_spectral_table_holds_an_all_zero_row(n_in, n_out):
    # The sin rows of u = 0 and of an even grid's Nyquist frequency are zero
    # (or rounding) and carry no power; neither table may square them.
    table = diagnostics._pair_rows(n_in, n_out)
    assert table.shape == (n_out, n_in)
    assert np.abs(table).max(axis=1).min() > 1e-3


def test_pair_rows_on_an_unchanged_grid_are_the_scaled_dft_rows():
    x = np.arange(10)
    angle = 2.0 * np.pi * ((np.arange(6)[:, None] * x) % 10) / 10
    scale = np.array([1.0] + [np.sqrt(2.0)] * 4 + [1.0])
    expected = np.concatenate([scale[:, None] * np.cos(angle),
                               np.sqrt(2.0) * np.sin(angle[1:5])])
    assert np.array_equal(diagnostics._pair_rows(10, 10), expected)


def test_aligned_diagnose_never_builds_an_aligned_stack(monkeypatch):
    cache, _ = straddling_cache()
    expected = per_latent_diagnose(cache, 3, 7, (6, 11))

    def refuse(*args, **kwargs):
        raise AssertionError("diagnose called align_grid")

    monkeypatch.setattr(diagnostics, "align_grid", refuse)
    report = diagnose(cache, kernel=3, num_bins=7, align=(6, 11))
    np.testing.assert_allclose(report.overlaps, expected[0], rtol=0, atol=1e-12)


def test_aligned_diagnose_transient_memory_is_bounded():
    """What `diagnose` allocates beyond its input, for 2 * CHUNK_SIZE
    (4, 16, 16) latents aligned to 14 x 14, stays under 9 MiB. A chunk of 64
    latents takes 1 MiB for its band stack and about 1.7 MiB more for the
    column and row products of all its channels (it peaks at 2.7 MiB, and
    at 2.7 MiB on 512 latents too). Chunks of 256 latents peaked at 10.3
    MiB; the per-channel products of chunks of 256 peaked at 8.1 MiB, a row
    table with cos and sin rows for every row frequency at 9.9 MiB, and
    building the aligned stack took 10.7 MiB."""
    rng = np.random.default_rng(7)
    records = []
    for i in range(2 * CHUNK_SIZE):
        data = rng.normal(size=(4, 16, 16)).astype(np.float32)
        records.append(CacheRecord(sample_id=f"m{i}", class_label=0,
                                   latent=LatentTensor(data=data, sample_id=f"m{i}")))
    cache = LatentCache(records=records)
    diagnose(cache, kernel=7, num_bins=10, align=(14, 14))  # fill the table caches
    _, peak = traced_peak(diagnose, cache, 7, 10, (14, 14))
    assert peak < 9.0 * 2**20, f"diagnose peaked at {peak / 2**20:.1f} MiB"
