"""Bank-conditioned refinement of class-text rows.

Each class row t_c retrieves a context r_c from the bank, and a residual
aggregator folds the pair back into the row:

    refined_c = LayerNorm(t_c + Agg([t_c ; r_c]))

That is `granules.fuse_rows` run with the `agg` parameter group. Without a
bank the refined rows are the raw rows. The mixed rows used for prediction
are a convex combination (1 - eta) * raw + eta * refined. No further
normalization is applied after the LayerNorm; the mixed rows are consumed
as-is by the logit layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bank import SemanticBank, retrieve_rows
from .errors import BankStateError, ParameterError
from .granules import fuse_rows


@dataclass(frozen=True)
class TextFeatureSet:
    """Raw, refined, and mixed class-text rows plus the mixing weight."""

    raw: np.ndarray
    refined: np.ndarray
    mixed: np.ndarray
    eta: float

    def __post_init__(self):
        if not (self.raw.shape == self.refined.shape == self.mixed.shape):
            raise ParameterError("text feature matrices must share one shape")
        if self.raw.ndim != 2:
            raise ParameterError("text features must be (num_classes, d)")
        if not 0.0 <= self.eta <= 1.0:
            raise ParameterError(f"eta must be in [0, 1], got {self.eta}")

    @property
    def num_classes(self) -> int:
        return self.raw.shape[0]


def refined_text_graph(raw_rows, bank: SemanticBank | None, agg_params) -> ad.Tensor:
    """The class rows a prediction reads: `raw_rows` themselves without a
    bank, else retrieval plus refinement (`agg_params` in `fuse_rows` order)
    for every row at once. A bank that is not full raises BankStateError."""
    raw_rows = ad.lift(raw_rows)
    if bank is None:
        return raw_rows
    if not bank.full:
        raise BankStateError(
            f"refinement needs a full bank ({bank.fill_count}/{bank.size} filled)")
    _, contexts = retrieve_rows(bank.entries, raw_rows, bank.temperature)
    return fuse_rows(raw_rows, contexts, *agg_params)


def mix(raw: np.ndarray, refined: np.ndarray, eta: float) -> np.ndarray:
    """(1 - eta) * raw + eta * refined; endpoints return exact copies."""
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must be in [0, 1], got {eta}")
    if eta == 0.0:
        return np.array(raw, dtype=np.float64, copy=True)
    if eta == 1.0:
        return np.array(refined, dtype=np.float64, copy=True)
    return (1.0 - eta) * np.asarray(raw, np.float64) + eta * np.asarray(refined, np.float64)


def build_text_features(raw: np.ndarray, bank: SemanticBank | None, agg_params,
                        eta: float) -> TextFeatureSet:
    """Fresh feature set from current rows, bank and aggregator group
    (`agg_params`, in `fuse_rows` order).

    Without a bank the refined and mixed rows are copies of the raw rows, so
    every downstream consumer collapses to the raw-text baseline.
    """
    raw = np.array(raw, dtype=np.float64)
    refined = np.array(refined_text_graph(ad.constant(raw), bank, agg_params).value)
    # A convex mix of two equal rows need not round back to the row itself.
    mixed = refined.copy() if bank is None else mix(raw, refined, eta)
    return TextFeatureSet(raw=raw, refined=refined, mixed=mixed, eta=eta)
