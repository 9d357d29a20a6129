"""Bank-conditioned refinement of class-text rows.

Each class row t_c retrieves a context r_c from the bank, and a residual
aggregator folds the pair back into the row:

    refined_c = LayerNorm(t_c + Agg([t_c ; r_c]))

That is `granules.fuse_rows` run with the `agg` parameter group. The class
rows that training, the pseudo-labels, the gradient check and prediction
all read are the convex combination (1 - eta) * raw + eta * refined, built
on the tape by `refined_text_graph`, the one place that picks them. No
further normalization is applied after the LayerNorm; the rows are consumed
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
    """The class rows a prediction reads: the value of `refined_text_graph`."""

    mixed: np.ndarray


def refined_text_graph(raw_rows, bank: SemanticBank | None, agg_params,
                       eta: float) -> ad.Tensor:
    """The class rows (1 - eta) * raw + eta * refined, where refined is
    retrieval plus refinement (`agg_params` in `fuse_rows` order) of every
    row at once.

    At `eta = 0` or without a bank they are `raw_rows` themselves: no bank is
    needed and no gradient reaches `agg_params`. At `eta = 1` they are the
    refined node. Otherwise a bank that is not full raises BankStateError.
    """
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must be in [0, 1], got {eta}")
    raw_rows = ad.lift(raw_rows)
    if eta == 0.0 or bank is None:
        return raw_rows
    if not bank.full:
        raise BankStateError(
            f"refinement needs a full bank ({bank.fill_count}/{bank.size} filled)")
    _, contexts = retrieve_rows(bank.entries, raw_rows, bank.temperature)
    refined = fuse_rows(raw_rows, contexts, *agg_params)
    if eta == 1.0:
        return refined

    def vjp(g):
        return [(p, w * g) for p, w in ((raw_rows, 1.0 - eta), (refined, eta))
                if p.requires_grad]

    return ad.node((1.0 - eta) * raw_rows.value + eta * refined.value,
                   (raw_rows, refined), vjp)
