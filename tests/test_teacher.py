"""Synthetic latent generator and cache file format."""

import struct

import numpy as np
import pytest

from bandprompt.bands import factorize
from bandprompt.errors import (
    BandpromptError,
    CacheCorruptionError,
    CacheFormatError,
    ParameterError,
    SpecificationError,
)
from bandprompt.teacher import (
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
    """Bytes of a three-record 2x4x4 cache whose record 1 carries `fault`, a
    NaN or inf payload value or an empty sample id: the file a writer that
    skipped `LatentTensor`'s checks would leave."""
    rng = np.random.default_rng(8)
    parts = [b"SPLC", struct.pack("<II", 1, 3)]
    for i in range(3):
        sid = b"" if (i, fault) == (1, "empty-id") else f"r{i}".encode()
        data = rng.normal(size=(2, 4, 4)).astype("<f4")
        if i == 1 and fault != "empty-id":
            data[1, 2, 3] = {"nan": np.nan, "inf": -np.inf}[fault]
        parts += [struct.pack("<H", len(sid)), sid, struct.pack("<IIII", i, 2, 4, 4), data.tobytes()]
    return b"".join(parts)


@pytest.mark.parametrize("fault, message", [
    ("nan", "non-finite"), ("inf", "non-finite"), ("empty-id", "sample_id must be non-empty"),
])
def test_a_record_the_latent_checks_reject_is_corruption_naming_it(tmp_path, fault, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(bad_record_cache(fault))
    with pytest.raises(CacheCorruptionError) as exc:
        read_cache(path)
    assert exc.value.record_index == 1
    assert "record 1" in str(exc.value) and message in str(exc.value)
    assert str(path) in str(exc.value)


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
