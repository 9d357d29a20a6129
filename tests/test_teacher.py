"""Synthetic latent generator and cache file format."""

import itertools
import struct

import numpy as np
import pytest

from bandprompt.bands import factorize
import bandprompt.teacher as teacher
from bandprompt.diagnostics import diagnose
from bandprompt.errors import (
    BandpromptError,
    CacheCorruptionError,
    CacheFormatError,
    ParameterError,
    SpecificationError,
)
from bandprompt.evaluate import run_base_to_novel
from bandprompt.teacher import (
    GENERATE_ROWS,
    CacheRecord,
    LatentCache,
    LatentTensor,
    SyntheticSpec,
    class_mode_patterns,
    generate_dataset,
    high_mode_pool,
    low_mode_pool,
    read_cache,
    write_cache,
)
from bandprompt.trainer import TrainConfig
from reference_ops import (per_class_dataset, per_record_dataset, per_record_read_cache,
                           relabelled, struct_cache_bytes, traced_peak)


def small_spec(**kw):
    base = dict(num_classes=3, grid=(2, 16, 16), seed=7)
    base.update(kw)
    return SyntheticSpec(**base)


# ---------------------------------------------------------------------------
# spec validation and mode pools


def test_spec_rejects_bad_values():
    with pytest.raises(SpecificationError):
        small_spec(num_classes=0)
    with pytest.raises(SpecificationError):
        small_spec(grid=(0, 16, 16))
    with pytest.raises(SpecificationError):
        small_spec(grid=(2, 3, 16))
    with pytest.raises(SpecificationError):
        small_spec(identity_band="mid")
    with pytest.raises(SpecificationError):
        small_spec(noise_std=-0.1)
    with pytest.raises(SpecificationError):
        small_spec(base_modes=0)
    with pytest.raises(SpecificationError):
        small_spec(base_modes=999)
    # numpy's SeedSequence would reject it later, as a bare ValueError
    with pytest.raises(SpecificationError, match="seed must be >= 0"):
        small_spec(seed=-1)


@pytest.mark.parametrize("grid", [(4, 16), (4, 16, 16, 1), (4, 16.0, 16), (4, True, 16), None,
                                  "4x16"], ids=["two", "four", "float", "bool", "none", "text"])
def test_spec_rejects_a_grid_that_is_not_three_ints(grid):
    with pytest.raises(SpecificationError, match="grid must be three ints"):
        SyntheticSpec(num_classes=2, grid=grid)


def test_mode_pools_respect_band_split():
    c, h, w = 3, 16, 16
    limit = min(h, w) // 4
    for _, fu, fv in low_mode_pool(c, h, w):
        assert max(fu, fv) <= limit
    for _, fu, fv in high_mode_pool(c, h, w):
        assert max(fu, fv) > limit
        assert fu <= h // 2 and fv <= w // 2
    # frequency-major ordering puts every channel's DC mode first
    heads = low_mode_pool(c, h, w)[:c]
    assert all(fu == 0 and fv == 0 for _, fu, fv in heads)


def test_mode_patterns_are_unit_rms_and_orthogonal():
    spec = small_spec(identity_band="low")
    pats = class_mode_patterns(spec)
    flat = pats.reshape(pats.shape[0], -1)
    c, h, w = spec.grid
    for row in flat:
        # support is one channel, so the sum of squares equals h*w
        assert abs(np.sum(row * row) - h * w) < 1e-9
    gram = flat @ flat.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-9


# ---------------------------------------------------------------------------
# generation


def test_generation_is_deterministic_and_class_major():
    spec = small_spec()
    a = generate_dataset(spec, 4)
    b = generate_dataset(spec, 4)
    assert a == b
    assert len(a) == 12
    assert np.array_equal(a.labels(), np.repeat(np.arange(3), 4))
    assert a.records[0].sample_id == "c000_s00000"
    assert a.records[-1].sample_id == "c002_s00003"
    assert generate_dataset(small_spec(seed=8), 4) != a


def test_same_class_latents_share_identity_coefficients():
    spec = small_spec(noise_std=0.0)
    cache = generate_dataset(spec, 2)
    pats = class_mode_patterns(spec)
    c, h, w = spec.grid
    flat = pats.reshape(pats.shape[0], -1)
    per_class = {}
    for rec in cache.records:
        z = rec.latent.data.astype(np.float64).reshape(-1)
        coef = flat @ z / (h * w)  # orthogonal unit-power patterns
        per_class.setdefault(rec.class_label, []).append(coef)
    for coefs in per_class.values():
        assert np.allclose(coefs[0], coefs[1], atol=1e-5)  # float32 storage


def test_class_mean_detail_bands_agree_across_classes():
    # identity lives in the low band, so class means of the detail band are
    # instance noise only; their pairwise differences shrink like 1/sqrt(n)
    spec = SyntheticSpec(num_classes=4, grid=(2, 16, 16), seed=3, identity_band="low")
    n = 64
    cache = generate_dataset(spec, n)
    labels = cache.labels()
    arrays = cache.arrays().astype(np.float64)
    means = []
    for c in range(spec.num_classes):
        details = [factorize(z, 7).detail for z in arrays[labels == c]]
        means.append(np.mean(details, axis=0))
    # per-cell std of one class mean: sqrt((inst^2 + noise^2)/n) with inst=0.5
    cell_std = np.sqrt((0.25 + spec.noise_std**2) / n)
    bound = 6.0 * np.sqrt(2.0) * cell_std
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert np.max(np.abs(means[i] - means[j])) < bound


def test_identity_band_high_moves_class_signal():
    spec = small_spec(identity_band="high", noise_std=0.0)
    cache = generate_dataset(spec, 2)
    pats = class_mode_patterns(spec)
    assert pats.shape[0] == spec.detail_modes
    c, h, w = spec.grid
    flat = pats.reshape(pats.shape[0], -1)
    coefs = {}
    for rec in cache.records:
        z = rec.latent.data.astype(np.float64).reshape(-1)
        coefs.setdefault(rec.class_label, []).append(flat @ z / (h * w))
    for pair in coefs.values():
        assert np.allclose(pair[0], pair[1], atol=1e-5)
    # different classes should not share identity coefficients
    assert not np.allclose(coefs[0][0], coefs[1][0], atol=1e-3)


@pytest.mark.parametrize("identity_band", ["low", "high"])
@pytest.mark.parametrize("noise_std", [0.0, 0.05])
def test_generation_is_bitwise_the_per_latent_loop(identity_band, noise_std):
    for seed, grid in ((7, (2, 16, 16)), (12345, (3, 8, 12))):
        spec = small_spec(seed=seed, grid=grid, identity_band=identity_band, noise_std=noise_std)
        ids, labels, latents = per_record_dataset(spec, 5)
        cache = generate_dataset(spec, 5)
        assert cache.ids == tuple(ids)
        assert np.array_equal(cache.labels(), labels)
        assert cache.arrays().dtype == np.float32
        assert cache.arrays().tobytes() == latents.tobytes()


@pytest.mark.parametrize("n_per_class", [1, 63, 64, 65, 200])
def test_row_block_generation_is_bitwise_the_whole_class_draw(n_per_class):
    specs = [small_spec(grid=grid, identity_band=band, noise_std=noise, seed=seed)
             for seed, grid in ((3, (1, 4, 4)), (7, (2, 16, 16)), (11, (2, 32, 32)))
             for band in ("low", "high") for noise in (0.0, 0.3)]
    specs.append(small_spec(base_modes=1, detail_modes=4, noise_std=0.05))
    for spec in specs:
        cache = generate_dataset(spec, n_per_class)
        assert cache.arrays().tobytes() == per_class_dataset(spec, n_per_class).tobytes(), spec


def test_generation_peak_does_not_grow_with_the_class_size():
    # Beyond its float32 output, generation holds three float64 arrays of one
    # GENERATE_ROWS block (a block's draws and latents, and the next block's
    # draws or latents or noise), whatever n_per_class; a whole-class draw of
    # 640 latents would hold three 5 MiB float64 arrays.
    spec = small_spec(grid=(4, 16, 16))
    generate_dataset(spec, 1)  # load what numpy imports on first use
    beyond = {}
    for n in (130, 640):
        cache, peak = traced_peak(generate_dataset, spec, n)
        beyond[n] = peak - cache.arrays().nbytes
    assert beyond[640] < beyond[130] + (64 << 10), beyond
    assert beyond[640] < 3 * GENERATE_ROWS * 4 * 16 * 16 * 8 + (256 << 10), beyond


def test_generate_rejects_bad_count():
    with pytest.raises(ParameterError):
        generate_dataset(small_spec(), 0)


# ---------------------------------------------------------------------------
# latent and cache containers


def test_latent_tensor_validation():
    with pytest.raises(ParameterError):
        LatentTensor(np.zeros((4, 4)), "x")
    with pytest.raises(ParameterError):
        LatentTensor(np.full((1, 2, 2), np.nan), "x")
    with pytest.raises(ParameterError):
        LatentTensor(np.zeros((1, 2, 2)), "")
    lt = LatentTensor(np.zeros((1, 2, 2)), "ok")
    assert lt.data.dtype == np.float32
    assert lt.grid == (1, 2, 2)


def test_cache_rejects_duplicates_and_mixed_grids():
    a = CacheRecord("a", 0, LatentTensor(np.zeros((1, 4, 4)), "a"))
    dup = CacheRecord("a", 1, LatentTensor(np.ones((1, 4, 4)), "a"))
    other = CacheRecord("b", 0, LatentTensor(np.zeros((2, 4, 4)), "b"))
    with pytest.raises(ParameterError):
        LatentCache([a, dup])
    with pytest.raises(ParameterError):
        LatentCache([a, other])
    with pytest.raises(ParameterError):
        CacheRecord("a", 0, LatentTensor(np.zeros((1, 4, 4)), "mismatch"))


def test_the_block_is_a_frozen_input():
    cache = generate_dataset(small_spec(), 3)
    block = cache.arrays()
    assert cache.arrays() is block and not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        cache.records[0].latent.data[0, 0, 0] = 1.0
    labels = cache.labels()
    labels[:] = 99
    assert np.array_equal(cache.labels(), np.repeat(np.arange(3), 3))


@pytest.mark.parametrize("make", [
    lambda c: LatentCache._of(c.arrays()[:3], np.array([0, 1]), c.ids[:3]),
    lambda c: LatentCache._of(c.arrays()[:2], np.array([0, 1, 2]), c.ids[:2]),
    lambda c: LatentCache._of(c.arrays()[:2], np.array([[0], [1]]), c.ids[:2]),
    lambda c: LatentCache._of(c.arrays(), c.labels()[:-1], c.ids),
    lambda c: LatentCache._of(c.arrays(), c.labels(), c.ids[:-1]),
    lambda c: LatentCache._of(c.arrays()[:-1], c.labels(), c.ids),
], ids=["fewer-labels", "more-labels", "2-d-labels", "_of-labels", "_of-ids", "_of-latents"])
def test_a_cache_needs_one_label_and_one_id_per_latent(make):
    # Unchecked, 3 latents with 2 labels would reach `fit` and fail there
    # with a raw IndexError.
    cache = generate_dataset(small_spec(), 3)
    with pytest.raises(ParameterError, match="one label and one id per latent"):
        make(cache)


@pytest.mark.parametrize("per_class", [0, 3])
def test_records_generation_and_the_file_give_equal_caches(tmp_path, per_class):
    cache = generate_dataset(small_spec(), per_class) if per_class else LatentCache([])
    path = tmp_path / "c.bin"
    write_cache(cache, path)
    for other in (LatentCache(cache.records), read_cache(path)):
        assert other == cache
        assert other.ids == cache.ids
        assert other.arrays().shape == cache.arrays().shape
        assert other.arrays().dtype == np.float32 and not other.arrays().flags.writeable


def test_no_hot_path_builds_per_record_objects(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"built a per-record {type(self).__name__}")

    spec = SyntheticSpec(num_classes=4, grid=(2, 8, 8), seed=0)
    monkeypatch.setattr(LatentTensor, "__post_init__", refuse)
    monkeypatch.setattr(CacheRecord, "__post_init__", refuse)
    cache = generate_dataset(spec, 6)
    path = tmp_path / "c.bin"
    write_cache(cache, path)
    assert read_cache(path) == cache
    diagnose(cache, kernel=3, num_bins=4)
    cfg = TrainConfig(embed_dim=4, bank_size=4, batch_size=4, epochs=2, seed=0)
    run_base_to_novel(cache, cfg, shots=4, select_by_base_val=True)
    with pytest.raises(AssertionError, match="per-record"):
        cache.records


# ---------------------------------------------------------------------------
# file format


def test_cache_bytes_match_struct_oracle(tmp_path):
    data = np.array([[[1.0, -1.0], [2.0, -2.0]]], dtype=np.float32)
    cache = LatentCache([CacheRecord("s0", 3, LatentTensor(data, "s0"))])
    path = tmp_path / "one.bin"
    write_cache(cache, path)
    blob = path.read_bytes()
    assert blob[:4] == b"SPLC"
    version, count = struct.unpack_from("<II", blob, 4)
    assert (version, count) == (1, 1)
    (id_len,) = struct.unpack_from("<H", blob, 12)
    assert blob[14 : 14 + id_len] == b"s0"
    label, c, h, w = struct.unpack_from("<IIII", blob, 14 + id_len)
    assert (label, c, h, w) == (3, 1, 2, 2)
    payload = struct.unpack_from("<4f", blob, 30 + id_len)
    assert payload == (1.0, -1.0, 2.0, -2.0)  # row-major
    assert len(blob) == 30 + id_len + 16


def test_empty_cache_round_trip(tmp_path):
    path = tmp_path / "empty.bin"
    write_cache(LatentCache([]), path)
    assert path.read_bytes() == b"SPLC" + struct.pack("<II", 1, 0)
    assert len(read_cache(path)) == 0


def test_random_cache_round_trip_is_exact(tmp_path):
    cache = generate_dataset(small_spec(), 5)
    path = tmp_path / "c.bin"
    write_cache(cache, path)
    loaded = read_cache(path)
    assert loaded == cache
    for a, b in zip(cache.records, loaded.records):
        assert a.latent.data.tobytes() == b.latent.data.tobytes()


def test_wrong_magic_and_version_raise_format_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + struct.pack("<II", 1, 0))
    with pytest.raises(CacheFormatError):
        read_cache(path)
    path.write_bytes(b"SPLC" + struct.pack("<II", 9, 0))
    with pytest.raises(CacheFormatError):
        read_cache(path)


def test_truncation_reports_record_index(tmp_path):
    cache = generate_dataset(small_spec(), 2)
    path = tmp_path / "c.bin"
    write_cache(cache, path)
    blob = path.read_bytes()
    record_size = (len(blob) - 12) // len(cache)
    # removing N whole records plus 3 bytes leaves record len-N-1 cut short
    for cut_records, expect_index in ((1, len(cache) - 2), (len(cache) - 1, 0)):
        trunc = tmp_path / f"t{cut_records}.bin"
        trunc.write_bytes(blob[: len(blob) - cut_records * record_size - 3])
        with pytest.raises(CacheCorruptionError) as exc:
            read_cache(trunc)
        assert exc.value.record_index == expect_index
        assert f"record {expect_index}" in str(exc.value)


def test_trailing_bytes_are_corruption_at_count(tmp_path):
    cache = generate_dataset(small_spec(), 1)
    path = tmp_path / "c.bin"
    write_cache(cache, path)
    extra = tmp_path / "x.bin"
    extra.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(CacheCorruptionError) as exc:
        read_cache(extra)
    assert exc.value.record_index == len(cache)


def bad_record_cache(fault):
    """Bytes of a three-record 2x4x4 cache whose record 1 carries `fault`: a
    NaN or inf payload value, an empty sample id, record 0's id again, or a
    2x4x5 grid. The file a writer that skipped the cache's checks would leave."""
    rng = np.random.default_rng(8)
    parts = [b"SPLC", struct.pack("<II", 1, 3)]
    for i in range(3):
        sid = f"r{i}".encode()
        if i == 1:
            sid = {"empty-id": b"", "duplicate-id": b"r0"}.get(fault, sid)
        grid = (2, 4, 5) if (i, fault) == (1, "mixed-grid") else (2, 4, 4)
        data = rng.normal(size=grid).astype("<f4")
        if i == 1 and fault in ("nan", "inf"):
            data[1, 2, 3] = {"nan": np.nan, "inf": -np.inf}[fault]
        parts += [struct.pack("<H", len(sid)), sid, struct.pack("<IIII", i, *grid), data.tobytes()]
    return b"".join(parts)


BAD_RECORD_FAULTS = [
    ("nan", "non-finite"),
    ("inf", "non-finite"),
    ("empty-id", "sample_id must be non-empty"),
    ("duplicate-id", "duplicate sample id 'r0'"),
    ("mixed-grid", "grid (2, 4, 5) differs from record 0's (2, 4, 4)"),
]


@pytest.mark.parametrize("fault, message", BAD_RECORD_FAULTS)
def test_a_record_the_latent_checks_reject_is_corruption_naming_it(tmp_path, fault, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(bad_record_cache(fault))
    with pytest.raises(CacheCorruptionError) as exc:
        read_cache(path)
    assert exc.value.record_index == 1
    assert "record 1" in str(exc.value) and message in str(exc.value)
    assert str(path) in str(exc.value)


def test_a_huge_record_count_is_truncation_not_an_allocation(tmp_path):
    # Sizes must come from the records present: a block sized from this
    # header's count would ask for tens of GiB before finding the truncation.
    path = tmp_path / "c.bin"
    write_cache(generate_dataset(small_spec(), 1), path)
    blob = bytearray(path.read_bytes())
    end_of_record_0 = 12 + (len(blob) - 12) // 3
    blob[8:12] = struct.pack("<I", 0xFFFFFFFF)
    path.write_bytes(bytes(blob[:end_of_record_0]))

    def read_truncated():
        with pytest.raises(CacheCorruptionError) as exc:
            read_cache(path)
        return exc.value

    error, peak = traced_peak(read_truncated)
    assert error.record_index == 1 and "truncated" in str(error)
    assert peak < 1 << 20


def test_every_single_byte_flip_fails_inside_the_taxonomy(tmp_path):
    rng = np.random.default_rng(4)
    records = []
    for i in range(2):
        data = rng.normal(size=(1, 4, 4)).astype(np.float32)
        records.append(CacheRecord(f"rec_{i}", i, LatentTensor(data, f"rec_{i}")))
    path = tmp_path / "c.bin"
    write_cache(LatentCache(records), path)
    blob = path.read_bytes()
    flipped = tmp_path / "flip.bin"
    id_errors = 0
    for offset in range(len(blob)):
        mutated = bytearray(blob)
        mutated[offset] ^= 0xFF
        flipped.write_bytes(bytes(mutated))
        try:
            read_cache(flipped)
        except BandpromptError as exc:
            id_errors += "not UTF-8" in str(exc)
    assert id_errors == 2 * len("rec_0")  # each id byte, flipped, leaves invalid UTF-8


# ---------------------------------------------------------------------------
# the codec against the per-record struct codec

# Ids whose UTF-8 byte lengths make runs of one record and of many: multi-byte
# characters, and ids ending in NUL, which a NumPy `S` dtype would strip.
RUN_IDS = ["a", "bb", "cc", "dd", "é", "ü\x00", "x\x00", "日本", "ab", "q",
           "rr", "ss", "tt", "u", "long\x00id", "long_idx", "日本語"]


def run_cache(ids=RUN_IDS, grid=(1, 2, 3), seed=5):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(len(ids), *grid)).astype(np.float32)
    return LatentCache._of(block, np.arange(len(ids), dtype=np.int64) % 3, ids)


def test_run_codec_round_trips_mixed_id_lengths_as_the_struct_bytes(tmp_path):
    lengths = [len(sid.encode()) for sid in RUN_IDS]
    run_lengths = [len(list(g)) for _, g in itertools.groupby(lengths)]
    assert 1 in run_lengths and max(run_lengths) >= 3
    cache = run_cache()
    path = tmp_path / "c.bin"
    write_cache(cache, path)
    assert path.read_bytes() == struct_cache_bytes(cache.ids, cache.labels(), cache.arrays())
    loaded = read_cache(path)
    assert loaded == cache and loaded.ids == tuple(RUN_IDS)
    assert loaded.arrays().tobytes() == cache.arrays().tobytes()
    ids, labels, block = per_record_read_cache(path)
    assert ids == RUN_IDS and np.array_equal(labels, cache.labels())


def test_a_large_run_moves_in_bounded_blocks_bitwise(tmp_path):
    # More payload than three 64 KiB copies hold, in one run of equal ids.
    cache = generate_dataset(small_spec(), 40)
    assert cache.arrays().nbytes > 3 * (1 << 16)
    path = tmp_path / "c.bin"
    write_cache(cache, path)
    assert path.read_bytes() == struct_cache_bytes(cache.ids, cache.labels(), cache.arrays())
    assert read_cache(path).arrays().tobytes() == cache.arrays().tobytes()


def reader_outcome(read, path):
    """What one reader makes of `path`: its error, or the cache it loads."""
    try:
        ids, labels, block = read(path)
    except BandpromptError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "record_index", None)
    return "loaded", list(ids), labels.tolist(), block.tobytes()


def run_reader(path):
    cache = read_cache(path)
    return cache.ids, cache.labels(), cache.arrays()


def test_every_flip_and_truncation_of_a_run_cache_reads_as_the_struct_reader(tmp_path):
    # At least three runs, so a flipped id length or dims field changes a
    # run's stride; a garbled dims field must not build a view past the file.
    blob = struct_cache_bytes(RUN_IDS[:9], [0, 1, 2] * 3, run_cache(RUN_IDS[:9], (1, 2, 2)).arrays())
    path = tmp_path / "c.bin"
    for offset in range(len(blob)):
        for bits in (0xFF, 0x01, 0x80):
            mutated = bytearray(blob)
            mutated[offset] ^= bits
            path.write_bytes(bytes(mutated))
            assert reader_outcome(run_reader, path) == reader_outcome(per_record_read_cache, path)
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        want = reader_outcome(per_record_read_cache, path)
        assert reader_outcome(run_reader, path) == want, cut


@pytest.mark.parametrize("fault, index", [
    ("not-utf8", 4), ("continuation-start", 4), ("repeat-in-run", 5), ("repeat-of-earlier-run", 6),
])
def test_a_bulk_rejection_names_the_record_the_struct_reader_names(tmp_path, fault, index):
    ids = [sid.encode() for sid in ["a0", "a1", "b", "c", "d0", "d1", "d2", "d3"]]
    if fault == "not-utf8":
        ids[4] = b"\xffx"
    elif fault == "continuation-start":
        # One character split across two ids of a run: the run's bytes decode.
        ids[4], ids[5] = b"d\xe6", b"\x97\xa5"
    elif fault == "repeat-in-run":
        ids[5] = ids[4]
    else:
        ids[6] = ids[1]
    rng = np.random.default_rng(3)
    block = rng.normal(size=(len(ids), 1, 2, 2)).astype("<f4")
    parts = [b"SPLC", struct.pack("<II", 1, len(ids))]
    for i, (sid, row) in enumerate(zip(ids, block)):
        parts += [struct.pack("<H", len(sid)), sid, struct.pack("<IIII", i, 1, 2, 2), row.tobytes()]
    path = tmp_path / "bad.bin"
    path.write_bytes(b"".join(parts))
    with pytest.raises(CacheCorruptionError) as exc:
        read_cache(path)
    assert exc.value.record_index == index
    assert reader_outcome(run_reader, path) == reader_outcome(per_record_read_cache, path)


@pytest.mark.parametrize("label", [-1, 2**32])
def test_write_cache_rejects_a_label_outside_u32_before_opening_the_file(tmp_path, label):
    cache = generate_dataset(small_spec(), 2)
    bad = relabelled(cache, np.arange(len(cache)), [0, 1, label, 0, 1, 2])
    path = tmp_path / "c.bin"
    with pytest.raises(ParameterError, match=rf"record 2 \('c001_s00000'\).*label {label}"):
        write_cache(bad, path)
    assert not path.exists()
    with pytest.raises(ParameterError, match="record 0"):
        write_cache(relabelled(cache, np.array([0, 1]), [label, 0]), path)
    assert not path.exists()
    # The last record is checked before an existing file is opened too.
    path.write_bytes(b"an earlier cache")
    with pytest.raises(ParameterError, match="record 5"):
        write_cache(relabelled(cache, np.arange(len(cache)), [0, 1, 2, 0, 1, label]), path)
    assert path.read_bytes() == b"an earlier cache"


def test_write_cache_rejects_an_id_it_cannot_store_before_opening_the_file(tmp_path):
    cache = generate_dataset(small_spec(), 1)
    bad = LatentCache._of(cache.arrays()[:2], cache.labels()[:2], ["a", "\ud800"])
    path = tmp_path / "c.bin"
    with pytest.raises(ParameterError, match=r"record 1 \('\\ud800'\).*not UTF-8"):
        write_cache(bad, path)
    assert not path.exists()
    path.write_bytes(b"an earlier cache")
    with pytest.raises(ParameterError, match="record 1"):
        write_cache(bad, path)
    assert path.read_bytes() == b"an earlier cache"
    # An id past the u16 length field: 21846 characters of 3 UTF-8 bytes.
    long_id = LatentCache._of(cache.arrays()[:2], cache.labels()[:2], ["a", "\u65e5" * 21846])
    with pytest.raises(ParameterError, match="record 1 has a sample id of 65538 bytes"):
        write_cache(long_id, path)
    assert path.read_bytes() == b"an earlier cache"


# ---------------------------------------------------------------------------
# the writer's and reader's working set


@pytest.mark.parametrize("buffer_bytes", [100, 150, 15_000, 1 << 20])
@pytest.mark.parametrize("layout", ["id-length-runs", "one-run"])
def test_written_pieces_give_the_struct_bytes(tmp_path, monkeypatch, layout, buffer_bytes):
    # Ids of many UTF-8 byte lengths, and 120 ids of one length, through file
    # buffers that split a record, that hold a few, and that hold the file.
    cache = run_cache() if layout == "id-length-runs" else generate_dataset(small_spec(), 40)
    monkeypatch.setattr(teacher, "WRITE_BYTES", buffer_bytes)
    path = tmp_path / "c.bin"
    write_cache(cache, path)
    assert path.read_bytes() == struct_cache_bytes(cache.ids, cache.labels(), cache.arrays())


def test_writing_a_cache_holds_under_2_mib_beyond_its_input(tmp_path):
    # The benchmark's cache-scan size: 2048 (4, 16, 16) latents, an 8.4 MiB
    # file, which a whole-file buffer would hold a second copy of.
    cache = generate_dataset(SyntheticSpec(num_classes=8, seed=1), 256)
    path = tmp_path / "c.bin"
    _, peak = traced_peak(write_cache, cache, path)
    assert path.stat().st_size > 8 << 20
    assert peak < 2 << 20, f"write_cache peaked at {peak / 2**20:.2f} MiB"
    assert path.read_bytes() == struct_cache_bytes(cache.ids, cache.labels(), cache.arrays())


def test_reading_a_cache_holds_its_file_and_under_1_mib_more(tmp_path):
    # The same 2048-latent cache: a reader that stacks one copy per record
    # would hold a second copy of the payload.
    path = tmp_path / "c.bin"
    write_cache(generate_dataset(SyntheticSpec(num_classes=8, seed=1), 256), path)
    size = path.stat().st_size
    _, peak = traced_peak(read_cache, path)
    assert peak < size + (1 << 20), f"read_cache peaked at {(peak - size) / 2**20:.2f} MiB beyond the file"
