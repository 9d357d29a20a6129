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
from itertools import chain

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
        slot = int(entries.dot(vec).argmax())  # first maximum wins ties
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
    scores = queries.value.dot(frozen.value.T) * inv_t
    # Shifting by the row max keeps exp() in range; softmax is shift invariant.
    e = np.exp(scores - np.maximum.reduce(scores, axis=1, keepdims=True))
    ones = ad.ONES[e.shape[1]]
    weights = e / e.dot(ones)[:, None]

    def vjp(g):
        gw = g.dot(frozen.value.T)
        gscores = weights * (gw - (gw * weights).dot(ones)[:, None])
        return ((queries, (gscores * inv_t).dot(frozen.value)),)

    return weights, ad.node(weights.dot(frozen.value), (queries, frozen), vjp)


# ---------------------------------------------------------------------------
# float-row blocks: a head line of sizes, then one line of decimals per row. A
# bank dump is one block, headed "M d mu tau"; a checkpoint holds one bank
# block and one block per parameter. A fault in either names its line.


def format_block(head: str, rows) -> list[str]:
    """A block's lines: `head`, then each row as round-trip `.17g` decimals."""
    return [head, *(" ".join(f"{v:.17g}" for v in row) for row in rows)]


@dataclass
class NumberedLines:
    """The (line number, text) pairs of a file's non-blank lines, and its
    `last` line number. An error names `kind` and "path:N"."""

    items: list[tuple[int, str]]
    last: int
    kind: str
    path: object

    def error(self, i: int, message: str) -> ParameterError:
        """A ParameterError naming line i, or the last line past the end."""
        n = self.items[i][0] if i < len(self.items) else self.last
        return ParameterError(f"{self.path}:{n}: malformed {self.kind}: {message}")

    def values(self, i: int, convert=float, tokens=None) -> list:
        """`convert` of each token of line i, or of `tokens` from it."""
        if i >= len(self.items):
            raise self.error(i, "the text ends too early")
        try:
            return list(map(convert, self.items[i][1].split() if tokens is None else tokens))
        except ValueError as exc:
            raise self.error(i, str(exc)) from None


def read_lines(path, kind: str) -> NumberedLines:
    """The non-blank lines of the UTF-8 text file `path`. Both writers end a
    file with a newline, so a last line without one is a file cut short."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        texts = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParameterError(f"{path}:{line}: {kind} is not UTF-8 text") from None
    if texts[-1]:
        raise ParameterError(f"{path}:{len(texts)}: {kind} is cut short: no final newline")
    items = [(n, text) for n, text in enumerate(texts[:-1], 1) if text.strip()]
    return NumberedLines(items, max(len(texts) - 1, 1), kind, path)


def read_block(lines: NumberedLines, head: int,
               floats: int = 0) -> tuple[np.ndarray, list[float], int]:
    """The block headed by line `head` (sizes >= 1, then `floats` numbers):
    its rows in the sizes' shape, the numbers and the index after it. Sizes
    (r, c) declare r rows of c, (n,) one row of n. The rows are converted
    at once, and walked one by one only to name a bad line."""
    tokens = lines.values(head, str)
    shape = tuple(lines.values(head, int, tokens[: len(tokens) - floats]))
    numbers = lines.values(head, float, tokens[len(tokens) - floats :])
    if not shape or min(shape) < 1:
        raise lines.error(head, f"expected sizes >= 1 and {floats} more numbers")
    n_rows = shape[0] if len(shape) > 1 else 1
    rows = [text.split() for _, text in lines.items[head + 1 : head + 1 + n_rows]]
    if len(rows) < n_rows:
        raise lines.error(head, f"{n_rows} rows declared, {len(rows)} follow")
    width = math.prod(shape) // n_rows
    if set(map(len, rows)) != {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise lines.error(head + 1 + i, f"row has {len(rows[i])} values, expected {width}")
    try:
        values = np.fromiter(map(float, chain.from_iterable(rows)), float, n_rows * width)
    except ValueError:
        for i, row in enumerate(rows, head + 1):
            lines.values(i, float, row)  # raises at the first bad token
        raise
    return values.reshape(shape), numbers, head + 1 + n_rows


def read_bank_block(lines: NumberedLines, head: int,
                    fill_count: int | None = None) -> tuple[SemanticBank, int]:
    """The bank headed by line `head`, full if `fill_count` is None, and the index after it."""
    entries, (momentum, temperature), end = read_block(lines, head, floats=2)
    try:
        return SemanticBank(entries=entries, momentum=momentum, temperature=temperature,
                            fill_count=len(entries) if fill_count is None else fill_count), end
    except ParameterError as exc:
        raise lines.error(head, str(exc)) from None


def format_bank(bank: SemanticBank) -> str:
    head = f"{bank.size} {bank.dim} {bank.momentum:.17g} {bank.temperature:.17g}"
    return "\n".join(format_block(head, bank.entries)) + "\n"


def write_bank(bank: SemanticBank, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_bank(bank))


def read_bank(path) -> SemanticBank:
    lines = read_lines(path, "bank dump")
    bank, end = read_bank_block(lines, 0)
    if end < len(lines.items):
        raise lines.error(end, f"a line after the {bank.size} rows: {lines.items[end][1]!r}")
    return bank
