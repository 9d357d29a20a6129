"""Base-to-novel evaluation protocol, accuracy metrics, and inference path.

Inference is deliberately narrow: a prediction is a function of the visual
embedding and the class rows of `refine.refined_text_graph`, built from the
raw text rows, the bank, the aggregator and `eta`: the same rows the
training step reads. The granule branch and the teacher latents do not
exist here.

Novel classes never train. Their raw rows are frozen prototype means of a
few held-out shots, refined through the same bank/aggregator as base rows,
and scored on disjoint samples. Base and novel accuracies are computed in
their own label spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .bands import head_graph
from .errors import ParameterError, ProtocolError
from .granules import check_permutation, film_rows, fuse_rows
from .losses import class_logits
from .refine import TextFeatureSet
from .teacher import LatentCache
from .trainer import (
    ToyVisualEncoder,
    TrainConfig,
    TrainState,
    check_labels,
    compute_features,
    fit,
    group,
    seed_streams,
)


# ---------------------------------------------------------------------------
# metrics


def harmonic_mean(base: float, novel: float) -> float:
    """2bn/(b+n) in the inputs' units; 0 when both are 0."""
    if base < 0 or novel < 0:
        raise ParameterError("accuracies must be >= 0")
    if base + novel == 0:
        return 0.0
    return 2.0 * base * novel / (base + novel)


def generalization_gap(base: float, novel: float) -> float:
    """100 * (base - novel) / base; positive means novel lags base."""
    if base <= 0:
        raise ProtocolError("generalization gap needs base accuracy > 0")
    return 100.0 * (base - novel) / base


@dataclass(frozen=True)
class EvalResult:
    base_acc: float
    novel_acc: float
    hm: float
    gap_percent: float
    base_classes: tuple[int, ...]
    novel_classes: tuple[int, ...]
    base_count: int
    novel_count: int


# ---------------------------------------------------------------------------
# inference


def predict(visual, text, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Scaled similarities of (n, d) visual rows against the text rows (or
    the rows of a `TextFeatureSet`); argmax per row, ties to the lowest class
    index."""
    logits = class_logits(visual, text.mixed if isinstance(text, TextFeatureSet) else text, scale)
    return logits, np.argmax(logits, axis=1)


def accuracy_percent(predicted: np.ndarray, labels: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    if predicted.shape != labels.shape or predicted.size == 0:
        raise ParameterError("predictions and labels must be equal-length and non-empty")
    return 100.0 * float(np.mean(predicted == labels))


# ---------------------------------------------------------------------------
# protocol


def split_base_novel(num_classes: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Even class indices train (base); odd classes are held out (novel)."""
    if num_classes < 2:
        raise ProtocolError(f"base-to-novel needs at least 2 classes, got {num_classes}")
    ids = range(num_classes)
    return tuple(c for c in ids if c % 2 == 0), tuple(c for c in ids if c % 2 == 1)


@dataclass
class ProtocolOutput:
    state: TrainState
    result: EvalResult
    shot_indices: dict[int, np.ndarray]
    eval_indices: dict[int, np.ndarray]
    val_history: list[float]


def _subsample_shots(labels: np.ndarray, shots: int,
                     rng: np.random.Generator) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    shot_idx: dict[int, np.ndarray] = {}
    eval_idx: dict[int, np.ndarray] = {}
    for c in range(int(labels.max()) + 1):
        pool = np.flatnonzero(labels == c)
        if len(pool) <= shots:
            raise ProtocolError(
                f"class {c} has {len(pool)} samples; need more than {shots} "
                "to keep a held-out evaluation set"
            )
        sel = np.sort(rng.choice(pool, size=shots, replace=False))
        shot_idx[c] = sel
        eval_idx[c] = np.setdiff1d(pool, sel)
    return shot_idx, eval_idx


def _gather(classes: tuple[int, ...],
            per_class: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The samples `per_class[c]` of each class of `classes`, in that order,
    and their labels in the label space of `classes` (`classes[i]` is i)."""
    idx = np.concatenate([per_class[c] for c in classes])
    labels = np.concatenate([np.full(len(per_class[c]), i) for i, c in enumerate(classes)])
    return idx, labels


def score(state: TrainState, cfg: TrainConfig, visual: np.ndarray, labels: np.ndarray,
          raw: np.ndarray | None = None) -> float:
    """Accuracy of the embeddings `visual` against `state.text_features(cfg, raw)`."""
    _, pred = predict(visual, state.text_features(cfg, raw), cfg.logit_scale)
    return accuracy_percent(pred, labels)


def check_shots(shots: int, select_by_base_val: bool) -> None:
    """Raise ParameterError unless `shots` leaves every base class a training
    shot; a validation split takes `max(1, shots // 4)` of them."""
    if shots < 1:
        raise ParameterError("shots must be >= 1")
    if select_by_base_val and shots < 2:
        raise ParameterError(f"shots must be >= 2 with select_by_base_val, got {shots}: "
                             "the validation split would take every base shot")


def run_base_to_novel(cache: LatentCache, cfg: TrainConfig, shots: int,
                      select_by_base_val: bool) -> ProtocolOutput:
    """Split, train on base shots, score held-out base and novel samples.

    With `select_by_base_val` a quarter of each base class's shots becomes a
    validation split; the parameters and bank entries with the best (earliest
    on ties) post-fill validation accuracy are restored before scoring.
    """
    check_shots(shots, select_by_base_val)
    labels = cache.labels()
    num_classes = check_labels(labels)
    base_classes, novel_classes = split_base_novel(num_classes)
    # The encoder is frozen and drawn from `cfg` as in `fit`: encode once.
    encoder = ToyVisualEncoder.create(cfg.embed_dim, cache.grid, cfg.seed)
    visual = encoder.encode_batch(cache.arrays())

    rng = np.random.default_rng(seed_streams(cfg.seed)["shots"])
    shot_idx, eval_idx = _subsample_shots(labels, shots, rng)
    n_val = max(1, shots // 4) if select_by_base_val else 0
    train_idx, train_labels = _gather(base_classes, {c: shot_idx[c][n_val:] for c in base_classes})

    val_history: list[float] = []
    best: tuple[float, np.ndarray, np.ndarray | None] | None = None
    callback = None
    if select_by_base_val:
        val_idx, val_labels = _gather(base_classes, {c: shot_idx[c][:n_val] for c in base_classes})

        def callback(state: TrainState, epoch: int) -> None:
            nonlocal best
            if state.bank is not None and not state.bank.full:
                return  # still in the fill phase; nothing comparable yet
            acc = score(state, cfg, visual[val_idx], val_labels)
            val_history.append(acc)
            if best is None or acc > best[0]:
                bank_copy = state.bank.entries.copy() if state.bank is not None else None
                best = (acc, state.optimizer.values.copy(), bank_copy)

    # Only `fit` reads the training subset's copy, so nothing keeps it alive
    # through scoring.
    state = fit(cache.subset(train_idx, train_labels), cfg, epoch_callback=callback)
    if best is not None:
        state.optimizer.values[...] = best[1]  # in place: parameters view it
        if state.bank is not None:
            state.bank.entries = best[2]

    # Base accuracy: held-out base samples against the trained class rows.
    base_idx, base_labels = _gather(base_classes, eval_idx)
    base_acc = score(state, cfg, visual[base_idx], base_labels)

    # Novel accuracy: frozen prototype rows from novel shots, refined through
    # the same bank/aggregator, scored on the remaining novel samples.
    proto = np.stack([visual[shot_idx[c]].mean(axis=0) for c in novel_classes])
    novel_idx, novel_labels = _gather(novel_classes, eval_idx)
    novel_acc = score(state, cfg, visual[novel_idx], novel_labels, raw=proto)

    result = EvalResult(
        base_acc=base_acc, novel_acc=novel_acc,
        hm=harmonic_mean(base_acc, novel_acc),
        gap_percent=generalization_gap(base_acc, novel_acc) if base_acc > 0 else float("nan"),
        base_classes=base_classes, novel_classes=novel_classes,
        base_count=len(base_idx), novel_count=len(novel_idx),
    )
    return ProtocolOutput(state=state, result=result, shot_indices=shot_idx,
                          eval_indices=eval_idx, val_history=val_history)


# ---------------------------------------------------------------------------
# counterfactual probe (training-time mechanism, never part of inference)


def granule_source_accuracy(state: TrainState, cfg: TrainConfig,
                            arrays: np.ndarray, labels: np.ndarray,
                            num_batches: int = 8) -> float:
    """How often swapped-granule embeddings classify as their donor's class.

    Batches of `cfg.batch_size` are drawn and permuted by a generator seeded
    from `cfg.seed`; each position i keeps its own anchor but receives the
    high-band granule of donor pi(i), and a hit means the modulated embedding
    lands on the donor's label under the raw text rows. High accuracy means
    the modulation actually carries granule content instead of echoing the
    anchor.
    """
    if num_batches < 1:
        raise ParameterError("num_batches must be >= 1")
    labels = np.asarray(labels, dtype=np.intp)
    if labels.size == 0:
        raise ParameterError("granule source accuracy needs at least one sample")
    if labels.shape != (len(arrays),):
        raise ParameterError(f"{len(arrays)} latents but labels of shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= state.num_classes:
        raise ParameterError(f"labels must lie in [0, {state.num_classes}), got "
                             f"{labels.min()} to {labels.max()}")
    feats = compute_features(state.encoder, arrays, labels, cfg.kernel)
    bs = min(cfg.batch_size, len(labels))
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xCF]))
    text_raw = state.params["text_raw"].value
    high_params = group(state.params, "proj_high", constant=True)
    fuse_params = group(state.params, "fuse", constant=True)
    film_params = group(state.params, "film", constant=True)
    if cfg.anchor == "refined_text_by_label":
        anchor_rows = state.text_features(cfg).mixed
    else:
        anchor_rows = text_raw

    hits = 0
    total = 0
    for _ in range(num_batches):
        idx = rng.choice(len(labels), size=bs, replace=False)
        pi = check_permutation(rng.permutation(bs), bs)
        y = feats.labels[idx]
        t_high = head_graph(ad.constant(feats.phi_detail[idx]), *high_params).value
        codes = fuse_rows(ad.constant(anchor_rows[y]), ad.constant(t_high[pi]), *fuse_params)
        v_cf = film_rows(codes, ad.constant(feats.visual[idx]), *film_params).value
        _, pred = predict(v_cf, text_raw, cfg.logit_scale)
        hits += int(np.sum(pred == y[pi]))
        total += bs
    return 100.0 * hits / total
