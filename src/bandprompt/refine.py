"""Bank-conditioned refinement of class-text rows.

Each class row t_c retrieves a context r_c from the bank, and a residual
aggregator folds the pair back into the row:

    refined_c = LayerNorm(t_c + Agg([t_c ; r_c]))

That is `granules.fuse_rows` run with the `agg` parameter group. The mixed
rows used for prediction are a convex combination (1 - eta) * raw +
eta * refined. No further normalization is applied after the LayerNorm; the
mixed rows are consumed as-is by the logit layer.
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


def refined_text_graph(raw_rows, bank_entries: np.ndarray, temperature: float,
                       agg_params) -> ad.Tensor:
    """Retrieval plus refinement for every class row at once."""
    raw_rows = ad.lift(raw_rows)
    _, contexts = retrieve_rows(bank_entries, raw_rows, temperature)
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
                        eta: float, use_bank: bool = True) -> TextFeatureSet:
    """Fresh feature set from current rows, bank and aggregator group
    (`agg_params`, in `fuse_rows` order).

    With the bank disabled the refined rows are defined to equal the raw rows,
    so every downstream consumer collapses to the raw-text baseline.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if not use_bank:
        return TextFeatureSet(raw=raw.copy(), refined=raw.copy(), mixed=raw.copy(), eta=eta)
    if bank is None or not bank.full:
        filled = "no bank" if bank is None else f"{bank.fill_count}/{bank.size} filled"
        raise BankStateError(f"refinement needs a full bank ({filled})")
    refined = refined_text_graph(ad.constant(raw), bank.entries, bank.temperature,
                                 agg_params).value
    return TextFeatureSet(raw=raw.copy(), refined=refined, mixed=mix(raw, refined, eta), eta=eta)
