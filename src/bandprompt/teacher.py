"""Synthetic spatial-latent teacher and its binary cache format.

Latents are sums of separable 2D cosine modes on a C x h x w grid. One band
(low- or high-order modes) carries a fixed per-class coefficient pattern, the
other band carries fresh per-instance coefficients, and i.i.d. Gaussian pixel
noise sits on top. Which band carries class identity is the `identity_band`
switch, so datasets can be built where class evidence is smooth structure or
where it is fine texture.

Cache files are little-endian: magic "SPLC", format version, record count,
then per record a length-prefixed UTF-8 sample id, a u32 class label, u32
C/h/w dims, and C*h*w float32 values in channel-major, row-major order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CacheCorruptionError,
    CacheFormatError,
    ParameterError,
    SpecificationError,
)

CACHE_MAGIC = b"SPLC"
CACHE_VERSION = 1

CLASS_AMPLITUDE = 1.0
INSTANCE_AMPLITUDE = 0.5


@dataclass(frozen=True, eq=False)
class LatentTensor:
    """One cached latent: float32 data of shape (C, h, w) plus its sample id."""

    data: np.ndarray
    sample_id: str

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ParameterError(f"latent data must be (C, h, w), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError(f"latent {self.sample_id!r} has non-finite values")
        if not self.sample_id:
            raise ParameterError("sample_id must be non-empty")
        object.__setattr__(self, "data", arr)

    @property
    def grid(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatentTensor):
            return NotImplemented
        return self.sample_id == other.sample_id and np.array_equal(self.data, other.data)


IDENTITY_BANDS = ("low", "high")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic dataset; fully deterministic given `seed`."""

    num_classes: int
    base_modes: int = 3
    detail_modes: int = 3
    noise_std: float = 0.05
    identity_band: str = "low"
    grid: tuple[int, int, int] = (4, 16, 16)
    seed: int = 0

    def __post_init__(self):
        c, h, w = self.grid
        if self.num_classes < 1:
            raise SpecificationError("num_classes must be >= 1")
        if c < 1 or min(h, w) < 4:
            raise SpecificationError(f"grid {self.grid} too small; need C >= 1 and h, w >= 4")
        if self.base_modes < 1 or self.detail_modes < 1:
            raise SpecificationError("mode counts must be >= 1")
        if self.identity_band not in IDENTITY_BANDS:
            raise SpecificationError(f"identity_band must be 'low' or 'high', got {self.identity_band!r}")
        if not (self.noise_std >= 0.0 and np.isfinite(self.noise_std)):
            raise SpecificationError("noise_std must be finite and >= 0")
        if self.base_modes > len(low_mode_pool(c, h, w)):
            raise SpecificationError("base_modes exceeds the low-order mode pool for this grid")
        if self.detail_modes > len(high_mode_pool(c, h, w)):
            raise SpecificationError("detail_modes exceeds the high-order mode pool for this grid")


@dataclass(frozen=True)
class CacheRecord:
    sample_id: str
    class_label: int
    latent: LatentTensor

    def __post_init__(self):
        if self.class_label < 0:
            raise ParameterError(f"class_label must be >= 0, got {self.class_label}")
        if self.sample_id != self.latent.sample_id:
            raise ParameterError("record id and latent id disagree")


@dataclass
class LatentCache:
    """Ordered list of (sample_id, class_label, latent) records."""

    records: list[CacheRecord] = field(default_factory=list)

    def __post_init__(self):
        ids = [r.sample_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ParameterError("sample ids must be unique within a cache")
        grids = {r.latent.grid for r in self.records}
        if len(grids) > 1:
            raise ParameterError(f"mixed grids in one cache: {sorted(grids)}")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def grid(self) -> tuple[int, int, int]:
        if not self.records:
            raise ParameterError("empty cache has no grid")
        return self.records[0].latent.grid

    def labels(self) -> np.ndarray:
        return np.array([r.class_label for r in self.records], dtype=np.int64)

    def arrays(self) -> np.ndarray:
        """Stacked float32 latents, shape (n, C, h, w)."""
        return np.stack([r.latent.data for r in self.records])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatentCache):
            return NotImplemented
        return len(self) == len(other) and all(
            a.sample_id == b.sample_id
            and a.class_label == b.class_label
            and a.latent == b.latent
            for a, b in zip(self.records, other.records)
        )


# ---------------------------------------------------------------------------
# mode pools

# Low-order modes start with the per-channel constants, then unit-frequency
# tilts. Constants pass a replicate-padded box mean exactly and f=1 modes are
# barely attenuated, so the class signal stays out of the detail band with a
# wide margin under the default k=7 smoothing.


def _band_split(h: int, w: int) -> int:
    return min(h, w) // 4


def low_mode_pool(c: int, h: int, w: int) -> list[tuple[int, int, int]]:
    """(channel, fu, fv) triples ordered by increasing spatial frequency."""
    limit = _band_split(h, w)
    freqs = [(0, 0)]
    if limit >= 1:
        freqs += [(0, 1), (1, 0)]
    return [(ch, fu, fv) for (fu, fv) in freqs for ch in range(c)]


def high_mode_pool(c: int, h: int, w: int) -> list[tuple[int, int, int]]:
    """(channel, fu, fv) triples near Nyquist, ordered by decreasing frequency."""
    limit = _band_split(h, w)
    fh, fw = h // 2, w // 2
    candidates = [
        (fh, fw),
        (fh, fw - 1),
        (fh - 1, fw),
        (fh - 1, fw - 1),
        (fh, 0),
        (0, fw),
        (fh - 1, 0),
        (0, fw - 1),
    ]
    freqs = []
    for fu, fv in candidates:
        if (fu, fv) in freqs:
            continue
        if fu < 0 or fv < 0 or max(fu, fv) <= limit:
            continue
        freqs.append((fu, fv))
    return [(ch, fu, fv) for (fu, fv) in freqs for ch in range(c)]


def _mode_pattern(grid: tuple[int, int, int], mode: tuple[int, int, int]) -> np.ndarray:
    """Unit-RMS separable cosine on one channel; zeros elsewhere."""
    c, h, w = grid
    ch, fu, fv = mode
    rows = np.cos(2.0 * np.pi * fu * np.arange(h) / h)
    cols = np.cos(2.0 * np.pi * fv * np.arange(w) / w)
    pat = np.outer(rows, cols)
    pat = pat / np.sqrt(np.mean(pat * pat))
    out = np.zeros(grid, dtype=np.float64)
    out[ch] = pat
    return out


def _stack_patterns(grid, modes) -> np.ndarray:
    return np.stack([_mode_pattern(grid, m) for m in modes])


def _class_and_instance_modes(spec: SyntheticSpec) -> tuple[list, list]:
    """(class_modes, instance_modes): the `identity_band` modes carry the
    per-class pattern, the other band's modes the per-instance one."""
    c, h, w = spec.grid
    low = low_mode_pool(c, h, w)[: spec.base_modes]
    high = high_mode_pool(c, h, w)[: spec.detail_modes]
    return (low, high) if spec.identity_band == "low" else (high, low)


# ---------------------------------------------------------------------------
# generation


def generate_dataset(spec: SyntheticSpec, n_per_class: int) -> LatentCache:
    """Build `num_classes * n_per_class` latents, class-major, deterministically."""
    if n_per_class < 1:
        raise ParameterError("n_per_class must be >= 1")
    class_modes, inst_modes = _class_and_instance_modes(spec)
    class_patterns = _stack_patterns(spec.grid, class_modes)
    inst_patterns = _stack_patterns(spec.grid, inst_modes)

    rng = np.random.default_rng(spec.seed)
    k_class = class_patterns.shape[0]
    k_inst = inst_patterns.shape[0]
    # Unit-RMS patterns and N(0, amp^2/K) coefficients give each component an
    # expected per-cell mean square of amp^2.
    class_coef = rng.normal(0.0, CLASS_AMPLITUDE / np.sqrt(k_class), size=(spec.num_classes, k_class))

    records: list[CacheRecord] = []
    flat_class = class_patterns.reshape(k_class, -1)
    flat_inst = inst_patterns.reshape(k_inst, -1)
    for label in range(spec.num_classes):
        class_field = (class_coef[label] @ flat_class).reshape(spec.grid)
        for i in range(n_per_class):
            inst_coef = rng.normal(0.0, INSTANCE_AMPLITUDE / np.sqrt(k_inst), size=k_inst)
            data = class_field + (inst_coef @ flat_inst).reshape(spec.grid)
            if spec.noise_std > 0.0:
                data = data + rng.normal(0.0, spec.noise_std, size=spec.grid)
            sid = f"c{label:03d}_s{i:05d}"
            records.append(CacheRecord(sid, label, LatentTensor(data.astype(np.float32), sid)))
    return LatentCache(records)


def class_mode_patterns(spec: SyntheticSpec) -> np.ndarray:
    """The identity-band mode patterns, stacked (K, C, h, w). Test oracle hook."""
    return _stack_patterns(spec.grid, _class_and_instance_modes(spec)[0])


# ---------------------------------------------------------------------------
# cache file I/O


def write_cache(cache: LatentCache, path) -> None:
    parts = [CACHE_MAGIC, struct.pack("<I", CACHE_VERSION), struct.pack("<I", len(cache))]
    for rec in cache.records:
        sid = rec.sample_id.encode("utf-8")
        if len(sid) > 0xFFFF:
            raise ParameterError(f"sample id too long: {rec.sample_id!r}")
        cc, hh, ww = rec.latent.grid
        parts.append(struct.pack("<H", len(sid)))
        parts.append(sid)
        parts.append(struct.pack("<IIII", rec.class_label, cc, hh, ww))
        parts.append(np.ascontiguousarray(rec.latent.data, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_cache(path) -> LatentCache:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: not a latent cache (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CACHE_VERSION:
        raise CacheFormatError(f"{path}: unsupported cache version {version}")
    (count,) = struct.unpack_from("<I", blob, 8)
    offset = 12
    records: list[CacheRecord] = []
    for index in range(count):
        if offset + 2 > len(blob):
            raise CacheCorruptionError(f"{path}: truncated before id length", index)
        (id_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if offset + id_len + 16 > len(blob):
            raise CacheCorruptionError(f"{path}: truncated record header", index)
        try:
            sid = blob[offset : offset + id_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CacheCorruptionError(f"{path}: sample id is not UTF-8", index) from None
        offset += id_len
        label, cc, hh, ww = struct.unpack_from("<IIII", blob, offset)
        offset += 16
        if min(cc, hh, ww) < 1:
            raise CacheCorruptionError(f"{path}: record has empty dims {(cc, hh, ww)}", index)
        nbytes = cc * hh * ww * 4
        if offset + nbytes > len(blob):
            raise CacheCorruptionError(f"{path}: truncated latent payload", index)
        data = np.frombuffer(blob, dtype="<f4", count=cc * hh * ww, offset=offset)
        offset += nbytes
        try:
            records.append(CacheRecord(sid, int(label), LatentTensor(data.reshape(cc, hh, ww).copy(), sid)))
        except ParameterError as exc:  # a non-finite payload or an empty id
            raise CacheCorruptionError(f"{path}: {exc}", index) from None
    if offset != len(blob):
        raise CacheCorruptionError(f"{path}: {len(blob) - offset} trailing bytes after last record", count)
    return LatentCache(records)
