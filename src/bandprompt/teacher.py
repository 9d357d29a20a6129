"""Synthetic spatial-latent teacher and its binary cache format.

Latents are sums of separable 2D cosine modes on a C x h x w grid. One band
(low- or high-order modes) carries a fixed per-class coefficient pattern, the
other band carries fresh per-instance coefficients, and i.i.d. Gaussian pixel
noise sits on top. Which band carries class identity is the `identity_band`
switch, so datasets can be built where class evidence is smooth structure or
where it is fine texture. A class is drawn and built GENERATE_ROWS latents
at a time from one stream, so its float64 temporaries do not grow with the
class size and its latents are those of one draw per class.

A `LatentCache` holds one read-only float32 (n, C, h, w) block, an int64
label vector and the sample ids. `CacheRecord` and `LatentTensor` are only
the input of `LatentCache(records)` and the views `.records` builds.

Cache files are little-endian: magic "SPLC", format version, record count,
then per record a length-prefixed UTF-8 sample id, a u32 class label, u32
C/h/w dims, and C*h*w float32 values in channel-major, row-major order.
The codec reads and writes one record at a time through the two header
structs. The reader moves each payload down over the headers within the
file's own bytes, and the writer goes through a WRITE_BYTES file buffer, so
neither holds a second copy of the file.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass

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
        if not (isinstance(self.grid, (tuple, list)) and len(self.grid) == 3
                and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                        for v in self.grid)):
            raise SpecificationError(f"grid must be three ints (C, h, w), got {self.grid!r}")
        c, h, w = self.grid
        if self.num_classes < 1:
            raise SpecificationError("num_classes must be >= 1")
        if self.seed < 0:
            raise SpecificationError(f"seed must be >= 0, got {self.seed}")
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


class LatentCache:
    """Latents as columns: a read-only float32 (n, C, h, w) block, an int64
    class label and a unique sample id per row. `records` builds row views."""

    __slots__ = ("_block", "_labels", "ids")

    def __init__(self, records: Sequence[CacheRecord] = ()):
        grids = {r.latent.grid for r in records}
        if len(grids) > 1:
            raise ParameterError(f"mixed grids in one cache: {sorted(grids)}")
        data = [r.latent.data for r in records]
        self._set(np.stack(data) if data else np.empty((0, 0, 0, 0), dtype=np.float32),
                  np.array([r.class_label for r in records], dtype=np.int64),
                  [r.sample_id for r in records])

    @classmethod
    def _of(cls, block: np.ndarray, labels: np.ndarray, ids) -> LatentCache:
        """A cache over `block` (frozen in place, not copied), `labels` and `ids`."""
        cache = cls.__new__(cls)
        cache._set(block, labels, ids)
        return cache

    def _set(self, block: np.ndarray, labels: np.ndarray, ids) -> None:
        self.ids = tuple(ids)
        if labels.ndim != 1 or not len(block) == len(labels) == len(self.ids):
            raise ParameterError(f"a cache needs one label and one id per latent: got "
                                 f"{len(block)} latents, labels of shape {labels.shape} "
                                 f"and {len(self.ids)} ids")
        if len(set(self.ids)) != len(self.ids):
            raise ParameterError("sample ids must be unique within a cache")
        block.flags.writeable = False
        self._block, self._labels = block, labels

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def records(self) -> list[CacheRecord]:
        return [CacheRecord(sid, int(y), LatentTensor(z, sid))
                for sid, y, z in zip(self.ids, self._labels, self._block)]

    @property
    def grid(self) -> tuple[int, int, int]:
        if not self.ids:
            raise ParameterError("empty cache has no grid")
        return self._block.shape[1:]  # type: ignore[return-value]

    def labels(self) -> np.ndarray:
        """A copy of the int64 labels, shape (n,)."""
        return self._labels.copy()

    def arrays(self) -> np.ndarray:
        """The read-only float32 (n, C, h, w) block itself, on every call."""
        return self._block

    def subset(self, index: np.ndarray, labels: np.ndarray) -> LatentCache:
        """Rows `index` of this cache, relabelled with `labels`."""
        return LatentCache._of(self._block[index], np.asarray(labels, dtype=np.int64),
                               [self.ids[i] for i in index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatentCache):
            return NotImplemented
        return (self.ids == other.ids and np.array_equal(self._labels, other._labels)
                and np.array_equal(self._block, other._block))


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


# Latents that `generate_dataset` draws and builds at a time, so its float64
# temporaries do not grow with `n_per_class`.
GENERATE_ROWS = 64


def generate_dataset(spec: SyntheticSpec, n_per_class: int) -> LatentCache:
    """Build `num_classes * n_per_class` latents, class-major, deterministically,
    GENERATE_ROWS of a class at a time into the float32 block."""
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

    flat_class = class_patterns.reshape(k_class, -1)
    flat_inst = inst_patterns.reshape(k_inst, -1)
    # Each instance takes its k_inst coefficients, then its noise cells, from
    # one row of the draws: the stream order of a per-latent loop, whatever
    # the rows per draw.
    cells = flat_inst.shape[1] if spec.noise_std > 0.0 else 0
    block = np.empty((spec.num_classes, n_per_class, flat_inst.shape[1]), dtype=np.float32)
    for label in range(spec.num_classes):
        class_field = class_coef[label] @ flat_class
        for a in range(0, n_per_class, GENERATE_ROWS):
            draws = rng.standard_normal((min(GENERATE_ROWS, n_per_class - a), k_inst + cells))
            inst_coef = INSTANCE_AMPLITUDE / np.sqrt(k_inst) * draws[:, :k_inst]
            data = inst_coef @ flat_inst
            data += class_field
            if cells:
                data += spec.noise_std * draws[:, k_inst:]
            block[label, a:a + len(data)] = data
    ids = [f"c{label:03d}_s{i:05d}" for label in range(spec.num_classes) for i in range(n_per_class)]
    return LatentCache._of(block.reshape(-1, *spec.grid),
                           np.repeat(np.arange(spec.num_classes, dtype=np.int64), n_per_class), ids)


def class_mode_patterns(spec: SyntheticSpec) -> np.ndarray:
    """The identity-band mode patterns, stacked (K, C, h, w). Test oracle hook."""
    return _stack_patterns(spec.grid, _class_and_instance_modes(spec)[0])


# ---------------------------------------------------------------------------
# cache file I/O

# The record header, around the UTF-8 sample id: its u16 byte length before
# it, the u32 class label and C/h/w dims after it.
_ID_LEN = struct.Struct("<H")
_HEAD = struct.Struct("<IIII")
# The file buffer of `write_cache`, so that writing a cache holds this much
# beside it, not a second copy of the file.
WRITE_BYTES = 1 << 20


def write_cache(cache: LatentCache, path) -> None:
    """Write `cache` as v1 records. Every record is checked before the file
    opens; then each goes out through a WRITE_BYTES file buffer: its header,
    then its float32 row."""
    ids, labels = cache.ids, cache.labels()
    raw = []
    for index, sid in enumerate(ids):
        try:
            raw.append(sid.encode("utf-8"))
        except UnicodeEncodeError:
            raise ParameterError(f"record {index} ({sid!r}) has a sample id that is not UTF-8") from None
        if len(raw[-1]) > 0xFFFF:
            raise ParameterError(f"record {index} has a sample id of {len(raw[-1])} bytes, over 65535")
    bad = (labels < 0) | (labels > 0xFFFFFFFF)
    if bad.any():
        index = int(bad.argmax())
        raise ParameterError(f"record {index} ({ids[index]!r}) has class label "
                             f"{labels[index]}, outside [0, 2**32)")
    block = np.ascontiguousarray(cache.arrays(), "<f4")
    grid = block.shape[1:]
    with open(path, "wb", buffering=WRITE_BYTES) as fh:
        fh.write(CACHE_MAGIC + struct.pack("<II", CACHE_VERSION, len(raw)))
        for sid, label, row in zip(raw, labels.tolist(), block):
            fh.write(_ID_LEN.pack(len(sid)) + sid + _HEAD.pack(label, *grid))
            fh.write(row)


def read_cache(path) -> LatentCache:
    """Check the records in file order and move each payload down over the
    headers read, then check the block once for non-finite values. Sizes
    come from the records present, never from the header's count."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]
    if len(blob) < 12 or blob[:4] != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: not a latent cache (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CACHE_VERSION:
        raise CacheFormatError(f"{path}: unsupported cache version {version}")
    (count,) = struct.unpack_from("<I", blob, 8)
    ids: dict[str, None] = {}  # in file order
    labels = []
    grid = None
    offset, end = 12, len(blob)
    with memoryview(blob) as view:
        for index in range(count):
            if offset + 2 > end:
                raise CacheCorruptionError(f"{path}: truncated before id length", index)
            (id_len,) = _ID_LEN.unpack_from(blob, offset)
            offset += 2
            if offset + id_len + 16 > end:
                raise CacheCorruptionError(f"{path}: truncated record header", index)
            try:
                sid = blob[offset:offset + id_len].decode("utf-8")
            except UnicodeDecodeError:
                raise CacheCorruptionError(f"{path}: sample id is not UTF-8", index) from None
            offset += id_len
            label, cc, hh, ww = _HEAD.unpack_from(blob, offset)
            dims = (cc, hh, ww)
            offset += 16
            if not sid:
                raise CacheCorruptionError(f"{path}: sample_id must be non-empty", index)
            if sid in ids:
                raise CacheCorruptionError(f"{path}: duplicate sample id {sid!r}", index)
            if 0 in dims:
                raise CacheCorruptionError(f"{path}: record has empty dims {dims}", index)
            grid = grid or dims
            if dims != grid:
                raise CacheCorruptionError(f"{path}: grid {dims} differs from record 0's {grid}", index)
            nbytes = cc * hh * ww * 4
            if offset + nbytes > end:
                raise CacheCorruptionError(f"{path}: truncated latent payload", index)
            ids[sid] = None
            labels.append(label)
            # A memmove: the payload moves down to its row of the block, over
            # headers already read, with no copy of its own.
            view[index * nbytes:(index + 1) * nbytes] = view[offset:offset + nbytes]
            offset += nbytes
    if offset != end:
        raise CacheCorruptionError(f"{path}: {end - offset} trailing bytes after last record", count)
    grid = grid or (0, 0, 0)
    block = np.frombuffer(blob, "<f4", count * grid[0] * grid[1] * grid[2]).reshape(count, *grid)
    if count and not (np.isfinite(block.min()) and np.isfinite(block.max())):
        index = int(np.argmin(np.isfinite(block).all(axis=(1, 2, 3))))
        raise CacheCorruptionError(f"{path}: latent {list(ids)[index]!r} has non-finite values", index)
    return LatentCache._of(block, np.array(labels, np.int64), ids)
