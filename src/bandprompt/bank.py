"""Momentum prototype bank over low-band embeddings.

The bank holds M unit vectors. It fills sequentially with the first M
arrivals; once full, each new vector updates its nearest entry (largest inner
product, ties to the lowest index) by an EMA step and the entry is
re-normalized. The bank is storage, not a module: entries never receive
gradients, and retrieval differentiates only through the query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericalDegeneracyError, ParameterError

_UNIT_TOL = 1e-5


@dataclass
class SemanticBank:
    entries: np.ndarray
    momentum: float
    temperature: float
    fill_count: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2 or min(self.entries.shape) < 1:
            raise ParameterError(f"bank entries must be (M, d), got {self.entries.shape}")
        if not (0.0 < self.momentum <= 1.0):
            raise ParameterError(f"momentum must be in (0, 1], got {self.momentum}")
        if not 0.0 < self.temperature < math.inf:
            raise ParameterError(f"temperature must be finite and > 0, got {self.temperature}")
        finite = np.isfinite(self.entries).all(axis=1)
        if not finite.all():
            raise ParameterError(f"bank entry {int(np.argmin(finite))} has non-finite values")
        if not 0 <= self.fill_count <= self.size:
            raise ParameterError("fill_count out of range")

    @classmethod
    def create(cls, size: int, dim: int, momentum: float,
               temperature: float) -> "SemanticBank":
        if size < 1 or dim < 1:
            raise ParameterError("bank size and dim must be >= 1")
        return cls(entries=np.zeros((size, dim)), momentum=momentum,
                   temperature=temperature, fill_count=0)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]

    @property
    def full(self) -> bool:
        return self.fill_count == self.size

    @property
    def mode(self) -> str:
        return "ema" if self.full else "filling"


def _check_unit_rows(rows: np.ndarray, dim: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ParameterError(f"bank input must be a 2-D stack of rows, got shape {rows.shape}")
    if rows.shape[1] != dim:
        raise ParameterError(f"input dim {rows.shape[1]} does not match bank dim {dim}")
    # The row norms as in `ad.unit_rows`. A non-finite entry makes its row's
    # norm NaN or inf, which fails the one reduction too.
    norms = np.sqrt((rows * rows).dot(ad.ONES[dim]))
    if not np.maximum.reduce(abs(norms - 1.0), initial=0.0) <= _UNIT_TOL:
        if not np.isfinite(rows).all():
            raise NumericalDegeneracyError("bank input has non-finite values")
        bad = int(np.flatnonzero(abs(norms - 1.0) > _UNIT_TOL)[0])
        raise ParameterError(f"bank input must be unit norm, got {norms[bad]:.6f} (row {bad})")
    return rows


def absorb(bank: SemanticBank, rows: np.ndarray) -> SemanticBank:
    """Absorb an (n, d) stack of unit rows in row order: rows go to the free
    slots while there are any, and each later row EMA-updates its nearest
    entry. The stack is checked whole before any row is absorbed; the result
    equals absorbing the rows one at a time. The EMA rows' momentum pulls are
    one product over the stack, and each updated row is divided by its norm
    straight into its slot."""
    rows = _check_unit_rows(rows, bank.dim)
    filled = min(bank.size - bank.fill_count, len(rows))
    bank.entries[bank.fill_count : bank.fill_count + filled] = rows[:filled]
    bank.fill_count += filled
    entries, keep = bank.entries, 1.0 - bank.momentum
    rows = rows[filled:]
    for vec, pull in zip(rows, bank.momentum * rows):
        slot = int((entries @ vec).argmax())  # first maximum wins ties
        entry = entries[slot]
        updated = keep * entry + pull
        # What `np.linalg.norm` computes for a vector, without its wrapper.
        norm = math.sqrt(updated.dot(updated))
        if norm < ad.MIN_NORM:
            raise NumericalDegeneracyError(
                f"EMA update produced a zero-length entry at slot {slot}"
            )
        np.divide(updated, norm, out=entry)
    return bank


def retrieve_rows(entries: np.ndarray, queries,
                  temperature: float) -> tuple[np.ndarray, ad.Tensor]:
    """Softmax weights over the frozen `entries` for a batch of query rows, and
    the contexts `weights @ entries`: the weights as a detached array, the
    contexts as one tape node that differentiates only through the queries."""
    queries, frozen = ad.lift(queries), ad.constant(entries)
    if queries.value.ndim != 2 or queries.shape[1:] != frozen.shape[1:]:
        raise ParameterError(f"retrieval expects (n, d) query rows matching the (M, d) "
                             f"entries {frozen.shape}, got {queries.shape}")
    inv_t = 1.0 / temperature
    scores = (queries.value @ frozen.value.T) * inv_t
    # Shifting by the row max keeps exp() in range; softmax is shift invariant.
    e = np.exp(scores - np.maximum.reduce(scores, axis=1, keepdims=True))
    ones = ad.ONES[e.shape[1]]
    weights = e / e.dot(ones)[:, None]

    def vjp(g):
        gw = g @ frozen.value.T
        gscores = weights * (gw - (gw * weights).dot(ones)[:, None])
        return ((queries, (gscores * inv_t) @ frozen.value),)

    return weights, ad.node(weights @ frozen.value, (queries, frozen), vjp)


# ---------------------------------------------------------------------------
# dump format: header "M d mu tau", then one line of d decimals per entry


def format_bank(bank: SemanticBank) -> str:
    lines = [f"{bank.size} {bank.dim} {bank.momentum:.17g} {bank.temperature:.17g}"]
    for row in bank.entries:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def write_bank(bank: SemanticBank, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_bank(bank))


def parse_bank(lines: list[str], fill_count: int | None = None) -> SemanticBank:
    if not lines:
        raise ParameterError("empty bank dump")
    head = lines[0].split()
    if len(head) != 4:
        raise ParameterError(f"malformed bank header: {lines[0]!r}")
    try:
        size, dim = int(head[0]), int(head[1])
        momentum, temperature = float(head[2]), float(head[3])
        rows = [[float(v) for v in ln.split()] for ln in lines[1 : 1 + size]]
    except ValueError as exc:
        raise ParameterError(f"malformed bank dump: {exc}") from None
    if size < 1 or dim < 1:
        raise ParameterError(f"bank dump size and dim must be >= 1, got {size} x {dim}")
    if len(rows) != size:
        raise ParameterError(f"bank dump has {len(rows)} rows, expected {size}")
    if any(len(row) != dim for row in rows):
        raise ParameterError("bank dump rows do not match the declared shape")
    return SemanticBank(
        entries=np.array(rows, dtype=np.float64).reshape(size, dim),
        momentum=momentum,
        temperature=temperature,
        fill_count=size if fill_count is None else fill_count,
    )


def read_bank(path) -> SemanticBank:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: bank dump is not UTF-8 text") from exc
    return parse_bank(lines)
