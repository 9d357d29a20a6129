"""Desk-scale training loop over a frozen random visual backbone.

The visual encoder is a fixed seeded linear map followed by L2
normalization; it never trains. Trainable state is exactly the tensors of
`param_table`: the raw class text rows, both band projection heads, the
refinement aggregator, and the granule fusion/modulation nets. The bank and
all teacher latents are frozen inputs. Each auxiliary loss term is built
exactly when its `TrainConfig` weight is > 0, and the bank exists exactly
when `bank_size` and `eta` are both > 0 (at `eta = 0` nothing reads it);
there is no separate switch.

Every forward pass is built on the autodiff tape in float64, so seeded runs
are bitwise reproducible and the finite-difference harness below can check
the analytic gradient of every trainable scalar.

The frozen features are computed once per cache in bounded blocks. The
encoder sizes its row blocks by their product (`_block_edges`): each holds
at least the fewest rows whose product stays above BLAS's small-matrix
switch, and at most ENCODE_ROWS (768 latents of 4x16x16 at `embed_dim` 16
or 32 take 64-row blocks, 0.5 MiB), each converted into one reused float64
buffer; `compute_features` splits SPLIT_ROWS at a time. That buffer is the
largest transient of both, and neither holds a copy of the whole stack.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .bands import band_stats, factorize, head_graph, uniform_init
from .bank import (SemanticBank, absorb, format_bank, format_block, read_bank_block, read_block,
                   read_lines)
from .errors import NumericalDegeneracyError, ParameterError
from .granules import check_permutation, film_rows, fuse_rows
from .losses import LossBreakdown, combine, loss_cls, loss_granule, loss_sem
from .refine import TextFeatureSet, refined_text_graph
from .teacher import LatentCache

ANCHOR_POLICIES = ("raw_text_by_label", "refined_text_by_label")


def _mlp(prefix: str, fan_in: int, hidden: int, out: int, final_init: str) -> dict:
    # Affine -> tanh -> affine, keyed in `ad.mlp_forward` argument order.
    return {
        f"{prefix}.w1": ((fan_in, hidden), "uniform"),
        f"{prefix}.b1": ((hidden,), "zeros"),
        f"{prefix}.w2": ((hidden, out), final_init),
        f"{prefix}.b2": ((out,), "zeros"),
    }


def _residual(prefix: str, dim: int) -> dict:
    # Zero final affine: a fresh group is plain LayerNorm of its first input.
    return {
        **_mlp(prefix, 2 * dim, dim, dim, "zeros"),
        f"{prefix}.ln_gain": ((dim,), "ones"),
        f"{prefix}.ln_bias": ((dim,), "zeros"),
    }


def param_table(num_classes: int, channels: int, dim: int) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every trainable tensor: name -> (shape, init), in init order.

    The order is the order of RNG draws, and within a group the order its
    tape composite takes the tensors. A group is the name up to the first
    dot. Inits: "noise" is 0.01-scaled normal noise (added to the class
    visual means), "uniform" is `uniform_init` by fan-in; "zeros" and "ones"
    draw nothing.
    """
    return {
        "text_raw": ((num_classes, dim), "noise"),
        **_mlp("proj_low", channels, channels, dim, "uniform"),
        **_mlp("proj_high", channels, channels, dim, "uniform"),
        **_residual("agg", dim),
        **_residual("fuse", dim),
        **_mlp("film", dim, dim, 2 * dim, "zeros"),
    }


# The 25 trainable names in `param_table` order (they do not depend on
# sizes), and each group's names under its prefix.
PARAM_NAMES = tuple(param_table(0, 0, 0))
PARAM_GROUPS = {
    prefix: tuple(n for n in PARAM_NAMES if n.partition(".")[0] == prefix)
    for prefix in (n.partition(".")[0] for n in PARAM_NAMES)
}


def _tuple_getter(names: tuple[str, ...]):
    # `itemgetter` of one key returns the bare item, not a 1-tuple.
    get = operator.itemgetter(*names)
    return get if len(names) > 1 else lambda params: (get(params),)


# Each group's tensors from a parameter dict, in `param_table` order.
_GROUP_GETTERS = {prefix: _tuple_getter(names) for prefix, names in PARAM_GROUPS.items()}


# Inputs that carry values but are excluded from the trainable set by
# construction; their analytic gradient is identically zero.
FROZEN_INPUTS = ("bank.entries", "teacher.latents", "encoder.weight")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. Each check reads one field, so a bad value
    fails on construction whatever the other fields hold."""

    embed_dim: int = 16
    kernel: int = 7
    lambda_sem: float = 0.1
    lambda_gf: float = 0.1
    lambda_gcf: float = 0.1
    bank_size: int = 64
    bank_tau: float = 0.07
    bank_momentum: float = 0.1
    bank_refresh: bool = False
    eta: float = 1.0
    logit_scale: float = 100.0
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0
    anchor: str = "raw_text_by_label"

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ParameterError("embed_dim must be >= 1")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ParameterError("kernel must be odd and >= 1")
        # The float checks are chained comparisons, which NaN fails: a NaN
        # weight would otherwise fail `> 0` and drop its term unannounced.
        for name in ("lambda_sem", "lambda_gf", "lambda_gcf", "learning_rate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("logit_scale", "bank_tau"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 <= self.eta <= 1.0:
            raise ParameterError("eta must be in [0, 1]")
        if self.epochs < 0:
            raise ParameterError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.bank_size < 0:
            raise ParameterError("bank_size must be >= 0 (0 turns the bank off)")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.bank_momentum <= 1:
            raise ParameterError("bank_momentum must be in (0, 1]")
        if self.anchor not in ANCHOR_POLICIES:
            raise ParameterError(f"anchor must be one of {ANCHOR_POLICIES}, got {self.anchor!r}")


# The config keys under which a checkpoint stamps the frozen encoder that
# `ToyVisualEncoder.create` redraws from them.
ENCODER_KEYS = ("embed_dim", "seed", "grid_c", "grid_h", "grid_w")
# Row blocks of `ToyVisualEncoder.encode_batch` (`_block_edges`). OpenBLAS
# multiplies a product of at most SMALL_PRODUCT multiply-adds (rows x dim x
# cells) with its small-matrix kernel, whose bits differ from the large one's,
# so a block reaches past it where it can. MIN_BLOCK_ROWS keeps a block of a
# wide product from shrinking to a few rows (one row is a matrix-vector
# product, of other bits again), and ENCODE_ROWS bounds its buffer.
SMALL_PRODUCT = 10**6
MIN_BLOCK_ROWS = 64
ENCODE_ROWS = 256
# Latents per band split in `compute_features`. A split holds about four
# float64 copies of its latents at once, so 4 keeps it under half of a
# MIN_BLOCK_ROWS block buffer (0.13 MiB against 0.25 MiB at 4x16x16).
SPLIT_ROWS = 4


def _block_edges(n: int, dim: int, cells: int) -> list[int]:
    """Edges of `encode_batch`'s near-equal row blocks of an (n, cells) by
    (cells, dim) product. The floor is the fewest rows, at least
    MIN_BLOCK_ROWS, whose product exceeds SMALL_PRODUCT. There are no more
    blocks than keeps each at the floor, and no fewer than keeps each within
    ENCODE_ROWS; where the two conflict (a floor over half of ENCODE_ROWS),
    the cap wins and a block may fall under the floor."""
    floor = max(MIN_BLOCK_ROWS, SMALL_PRODUCT // max(1, dim * cells) + 1)
    blocks = max(1, n // floor, -(-n // ENCODE_ROWS))
    return [n * i // blocks for i in range(blocks + 1)]


@dataclass(frozen=True)
class ToyVisualEncoder:
    """Frozen seeded linear map R^{C*h*w} -> R^d with unit-norm outputs,
    drawn from `seed`."""

    weight: np.ndarray
    grid: tuple[int, int, int]
    seed: int

    @classmethod
    def create(cls, dim: int, grid: tuple[int, int, int], seed: int) -> "ToyVisualEncoder":
        if seed < 0:  # numpy's SeedSequence takes no negative integer
            raise ParameterError(f"encoder seed must be >= 0, got {seed}")
        c, h, w = grid
        n_in = c * h * w
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE11C]))
        weight = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(dim, n_in))
        return cls(weight=weight, grid=(c, h, w), seed=seed)

    def stamp(self) -> dict[str, str]:
        """The `ENCODER_KEYS` items that redraw this encoder."""
        return dict(zip(ENCODER_KEYS, map(str, (len(self.weight), self.seed, *self.grid))))

    def encode_batch(self, arrays) -> np.ndarray:
        """Unit rows of the (n, C, h, w) latents times the weight; a row whose
        norm is below MIN_NORM or not finite raises, naming the row. Each row
        block of `_block_edges` is converted into one reused float64 buffer
        and multiplied from it. The blocks equal the single product bitwise
        only where BLAS runs both with one kernel (README)."""
        x = np.asarray(arrays)
        if x.ndim != 4 or x.shape[1:] != self.grid:
            raise ParameterError(f"expected (n, {self.grid}) latents, got {x.shape}")
        flat = x.reshape(len(x), -1)
        out = np.empty((len(x), len(self.weight)))
        edges = _block_edges(len(x), *self.weight.shape)
        buffer = np.empty((-(-len(x) // (len(edges) - 1)), flat.shape[1]))
        # Non-finite latents give non-finite norms, which the guard reports.
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in zip(edges[:-1], edges[1:]):
                buffer[:b - a] = flat[a:b]
                np.dot(buffer[:b - a], self.weight.T, out=out[a:b])
            norms = np.linalg.norm(out, axis=1, keepdims=True)
        # As in `ad.unit_rows`: NaN fails both comparisons.
        if not (np.minimum.reduce(norms, axis=None, initial=ad.MIN_NORM) >= ad.MIN_NORM
                and np.maximum.reduce(norms, axis=None, initial=0.0) < np.inf):
            bad = int((np.isfinite(norms) & (norms >= ad.MIN_NORM)).argmin())
            kind = "a zero-length" if norms[bad, 0] < ad.MIN_NORM else "a non-finite-norm"
            raise NumericalDegeneracyError(
                f"encoder produced {kind} embedding (row {bad}, norm {norms[bad, 0]:.3e})")
        out /= norms
        return out


@dataclass
class TrainState:
    params: dict[str, ad.Tensor]
    bank: SemanticBank | None
    encoder: ToyVisualEncoder
    optimizer: "Adam"
    epoch_history: list[LossBreakdown] = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        return self.params["text_raw"].value.shape[0]

    def param_values(self) -> dict[str, np.ndarray]:
        return {k: np.array(v.value, copy=True) for k, v in self.params.items()}

    def text_features(self, cfg: TrainConfig, raw: np.ndarray | None = None) -> TextFeatureSet:
        """A copy of the `refined_text_graph` rows at `cfg.eta` of the trained
        text rows, or of `raw` rows (novel-class prototypes) through the same
        bank/aggregator."""
        if raw is None:
            raw = self.params["text_raw"].value
        rows = refined_text_graph(ad.constant(raw), self.bank,
                                  group(self.params, "agg", constant=True), cfg.eta)
        return TextFeatureSet(mixed=np.array(rows.value))


class Adam:
    """Standard Adam, which owns the parameters: all values live in one float64
    vector and all gradients in another, in `params` order, and each `.value`
    and `.grad` is a view of its span (`spans`, name -> slice). `backward`
    adds into `grads` and `step` updates `values` in place, so write into a
    parameter or into `values`, never rebind either. The update is
    elementwise, so it equals a per-tensor loop bitwise."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, ad.Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.values = np.concatenate([p.value.ravel() for p in params.values()])
        self.grads = np.zeros_like(self.values)
        self.spans: dict[str, slice] = {}
        start = 0
        for name, p in params.items():
            span = self.spans[name] = slice(start, start + p.value.size)
            p.value = self.values[span].reshape(p.value.shape)
            p.grad = self.grads[span].reshape(p.value.shape)
            start = span.stop
        self.m, self.v = np.zeros_like(self.values), np.zeros_like(self.values)
        # Scratch vectors: `step` allocates no full-length temporary.
        self._scratch = np.empty_like(self.values), np.empty_like(self.values)

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def step(self) -> None:
        """m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, values -= lr m_hat /
        (sqrt(v_hat) + eps), in place and operation for operation in that
        order, so rounding matches the expression form."""
        self.t += 1
        b1, b2, g = self.BETA1, self.BETA2, self.grads
        a, b = self._scratch
        self.m *= b1
        self.m += np.multiply(g, 1.0 - b1, out=a)
        self.v *= b2
        self.v += np.multiply(np.multiply(g, g, out=a), 1.0 - b2, out=a)
        np.sqrt(np.divide(self.v, 1.0 - b2**self.t, out=b), out=b)
        b += self.EPS
        np.multiply(np.divide(self.m, 1.0 - b1**self.t, out=a), self.lr, out=a)
        self.values -= np.divide(a, b, out=a)


# ---------------------------------------------------------------------------
# state construction


def group(params: dict[str, ad.Tensor], prefix: str,
          constant: bool = False) -> tuple[ad.Tensor, ...]:
    """One group's tensors in `param_table` order; with `constant`, value-only
    copies for eager use, through which no gradient reaches the parameters."""
    tensors = _GROUP_GETTERS[prefix](params)
    return tuple(ad.constant(t.value) for t in tensors) if constant else tensors


def check_labels(labels: np.ndarray) -> int:
    """The class count K of labels that cover 0..K-1 with every class present."""
    if len(labels) == 0:
        raise ParameterError("cannot train on an empty cache")
    classes = np.unique(labels)
    num = int(labels.max()) + 1
    if len(classes) != num or classes[0] != 0:
        raise ParameterError("labels must cover 0..K-1 with every class present")
    return num


def init_group(prefix: str, num_classes: int, channels: int, dim: int,
               rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh values of one group, drawn from `rng` in `param_table` order."""
    table = param_table(num_classes, channels, dim)
    values: dict[str, np.ndarray] = {}
    for name in PARAM_GROUPS[prefix]:
        shape, init = table[name]
        if init == "uniform":
            values[name] = uniform_init(rng, *shape)
        elif init == "noise":
            values[name] = 0.01 * rng.normal(size=shape)
        else:
            values[name] = np.ones(shape) if init == "ones" else np.zeros(shape)
    return values


def init_params(num_classes: int, channels: int, dim: int,
                class_means: np.ndarray, rng: np.random.Generator) -> dict[str, ad.Tensor]:
    """Trainable tensors; text rows start at per-class visual means plus noise."""
    if class_means.shape != (num_classes, dim):
        raise ParameterError("class means must be (num_classes, dim)")
    values: dict[str, np.ndarray] = {}
    for prefix in PARAM_GROUPS:
        values.update(init_group(prefix, num_classes, channels, dim, rng))
    values["text_raw"] = class_means + values["text_raw"]
    return {k: ad.parameter(v) for k, v in values.items()}


@dataclass(frozen=True)
class CacheFeatures:
    """Frozen per-sample inputs: embeddings, band statistics, labels."""

    visual: np.ndarray
    phi_base: np.ndarray
    phi_detail: np.ndarray
    labels: np.ndarray


def compute_features(encoder: ToyVisualEncoder, arrays: np.ndarray,
                     labels: np.ndarray, kernel: int) -> CacheFeatures:
    """Encode an (n, C, h, w) stack, then split it into bands and take their
    statistics SPLIT_ROWS latents at a time, into preallocated (n, C) rows.
    Each latent splits exactly and alone, so the rows are bitwise those of
    one split of the whole stack, and the split's float64 temporaries do not
    grow with n."""
    arrays = np.asarray(arrays)
    visual = encoder.encode_batch(arrays)  # checks the stack's shape
    phi_base, phi_detail = np.empty((2, len(arrays), encoder.grid[0]))
    for a in range(0, len(arrays), SPLIT_ROWS):
        pair = factorize(arrays[a:a + SPLIT_ROWS], kernel)
        phi_base[a:a + SPLIT_ROWS] = band_stats(pair.base)
        phi_detail[a:a + SPLIT_ROWS] = band_stats(pair.detail)
    return CacheFeatures(visual=visual, phi_base=phi_base, phi_detail=phi_detail,
                         labels=np.asarray(labels, dtype=np.intp))


def seed_streams(seed: int) -> dict[str, np.random.SeedSequence]:
    """Independent seeds for init, batch order, granule permutations and shots."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    children = np.random.SeedSequence(seed).spawn(4)
    return dict(zip(("init", "batch", "pi", "shots"), children))


def init_state(cache: LatentCache, cfg: TrainConfig) -> tuple[TrainState, CacheFeatures]:
    """A fresh state for `cache` and the cache's frozen features, computed
    once; the text rows start at the features' per-class visual means."""
    labels = cache.labels()
    num_classes = check_labels(labels)
    encoder = ToyVisualEncoder.create(cfg.embed_dim, cache.grid, cfg.seed)
    feats = compute_features(encoder, cache.arrays(), labels, cfg.kernel)
    means = np.stack([feats.visual[labels == c].mean(axis=0) for c in range(num_classes)])
    streams = seed_streams(cfg.seed)
    params = init_params(num_classes, cache.grid[0], cfg.embed_dim,
                         means, np.random.default_rng(streams["init"]))
    bank = (
        SemanticBank.create(cfg.bank_size, cfg.embed_dim, cfg.bank_momentum, cfg.bank_tau)
        if cfg.bank_size > 0 and cfg.eta > 0 else None
    )
    state = TrainState(params=params, bank=bank, encoder=encoder,
                       optimizer=Adam(params, cfg.learning_rate))
    return state, feats


# ---------------------------------------------------------------------------
# forward graph


def low_band_rows(params: dict[str, ad.Tensor], phi_base: np.ndarray) -> np.ndarray:
    """Eager unit low-band embeddings for bank absorption (no gradients kept)."""
    return head_graph(ad.constant(phi_base), *group(params, "proj_low", constant=True)).value


def forward_batch(params: dict[str, ad.Tensor], feats: CacheFeatures,
                  idx: np.ndarray, bank: SemanticBank | None, cfg: TrainConfig,
                  pi: np.ndarray | None,
                  probs_override: np.ndarray | None = None) -> tuple[ad.Tensor, LossBreakdown]:
    """Assemble the objective terms with a weight > 0 for one batch on the tape.

    `probs_override` substitutes fixed pseudo-labels. The gradient checker
    needs it: the detached posteriors still *depend* on the parameters, so a
    naive finite difference would measure the very path the stop-gradient
    removes.
    """
    idx = np.asarray(idx, dtype=np.intp)
    y = feats.labels[idx]
    visual = ad.constant(feats.visual[idx])
    text_raw = params["text_raw"]
    text_pred = refined_text_graph(text_raw, bank, group(params, "agg"), cfg.eta)
    cls_term, probs = loss_cls(visual, text_pred, y, cfg.logit_scale)

    sem_term = None
    if cfg.lambda_sem > 0:
        t_low = head_graph(ad.constant(feats.phi_base[idx]), *group(params, "proj_low"))
        sem_term = loss_sem(probs if probs_override is None else probs_override, text_raw, t_low)

    granule_terms = None
    if cfg.lambda_gf > 0 or cfg.lambda_gcf > 0:
        # One stacked pass; each block pairs the anchors with donor granules,
        # which the high-band head embeds straight from the donors' rows.
        donors = [np.arange(len(idx))] if cfg.lambda_gf > 0 else []
        if cfg.lambda_gcf > 0:
            if pi is None:
                raise ParameterError("counterfactual term needs a permutation")
            donors.append(check_permutation(pi, len(idx)))
        donor, k = np.concatenate(donors), len(donors)
        t_high = head_graph(ad.constant(feats.phi_detail[idx[donor]]),
                            *group(params, "proj_high"))
        anchor_rows = text_pred if cfg.anchor == "refined_text_by_label" else text_raw
        codes = fuse_rows(ad.take_rows(anchor_rows, np.concatenate([y] * k)), t_high,
                          *group(params, "fuse"))
        v_mod = film_rows(codes, ad.constant(np.concatenate([visual.value] * k)),
                          *group(params, "film"))
        granule_terms = loss_granule(v_mod, text_raw, y[donor], cfg.logit_scale, k)

    return combine(cls_term, sem_term, granule_terms,
                   cfg.lambda_sem, cfg.lambda_gf, cfg.lambda_gcf)


def train_step(state: TrainState, feats: CacheFeatures, idx: np.ndarray,
               cfg: TrainConfig, pi: np.ndarray | None) -> LossBreakdown:
    """One optimizer update on the batch `idx` of `feats`, with granule
    permutation `pi`. A bank must already be full; `fit` handles the fill
    phase."""
    total, parts = forward_batch(state.params, feats, idx, state.bank, cfg, pi)
    state.optimizer.zero_grad()
    ad.backward(total)
    state.optimizer.step()
    return parts


def _stratified_order(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Round-robin over class-shuffled index queues: batches stay class-balanced.
    Round r takes each queue's r-th last index, in a fresh class permutation."""
    classes, counts = np.unique(labels, return_counts=True)
    by_class, rounds = np.argsort(labels, kind="stable"), counts.max(initial=0)
    queues = [rng.permutation(by_class[end - k : end]) for end, k in zip(counts.cumsum(), counts)]
    perms = np.array([rng.permutation(classes) for _ in range(rounds)], dtype=classes.dtype)
    grid = np.full((len(classes), rounds), -1, dtype=np.intp)  # -1: the queue is empty
    grid[np.arange(rounds) < counts[:, None]] = np.concatenate([q[::-1] for q in queues] or [[]])
    picks = grid[np.searchsorted(classes, perms).reshape(rounds, len(classes)),
                 np.arange(rounds)[:, None]]
    return picks[picks >= 0]


def _mean_breakdown(parts: list[LossBreakdown]) -> LossBreakdown:
    """Each term's mean over `parts`; a term absent from them stays None."""
    means = {}
    for f in fields(LossBreakdown):
        vals = [getattr(p, f.name) for p in parts]
        means[f.name] = None if None in vals else float(np.mean(vals))
    return LossBreakdown(**means)


def fit(cache: LatentCache, cfg: TrainConfig, epoch_callback=None) -> TrainState:
    """Full training loop: fill the bank, then stratified mini-batch updates."""
    state, feats = init_state(cache, cfg)
    streams = seed_streams(cfg.seed)
    rng_batch = np.random.default_rng(streams["batch"])
    rng_pi = np.random.default_rng(streams["pi"])
    n = len(cache)

    for epoch in range(cfg.epochs):
        order = _stratified_order(feats.labels, rng_batch)
        epoch_parts: list[LossBreakdown] = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if state.bank is not None and not state.bank.full:
                # Fill phase: absorb only, no optimizer update.
                absorb(state.bank, low_band_rows(state.params, feats.phi_base[idx]))
                continue
            pi = rng_pi.permutation(len(idx)) if cfg.lambda_gcf > 0 else None
            epoch_parts.append(train_step(state, feats, idx, cfg, pi))
        if cfg.bank_refresh and state.bank is not None and state.bank.full:
            sub = np.sort(rng_batch.choice(n, size=max(1, n // 2), replace=False))
            absorb(state.bank, low_band_rows(state.params, feats.phi_base[sub]))
        if epoch_parts:
            state.epoch_history.append(_mean_breakdown(epoch_parts))
        if epoch_callback is not None:
            epoch_callback(state, epoch)
    return state


# ---------------------------------------------------------------------------
# gradient checking

FD_STEP = 3e-5
FD_TOLERANCE = 1e-4
# The stencil's differences cancel ~16 digits of an O(10) objective, leaving
# ~1e-10 absolute noise at this step. Coordinates whose true gradient sits
# below the floor are compared against it instead, so measurement noise on
# near-dead coordinates cannot read as a mismatch; systematic errors on live
# coordinates are orders of magnitude above both.
_REL_FLOOR = 1e-5
# Optimizer steps `run_gradient_check` takes before it checks, so the
# zero-initialized residual paths carry signal.
WARMUP_STEPS = 2


@dataclass(frozen=True)
class GradCheckReport:
    per_param: dict[str, float]
    worst_param: str
    worst_error: float
    excluded: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.worst_error < FD_TOLERANCE


def gradient_check(state: TrainState, feats: CacheFeatures, idx: np.ndarray,
                   cfg: TrainConfig) -> GradCheckReport:
    """Analytic vs finite-difference gradients for every trainable scalar.

    The numeric side is the fourth-order five-point stencil
    (8(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h at h = FD_STEP. A
    central difference at the same step has an O(h^2) truncation error that
    alone exceeds the tolerance on coordinates with a small gradient and a
    large curvature.

    The batch, permutation, and bank are held fixed across evaluations. Bank
    entries, teacher latents, and the encoder are reported as excluded: they
    are not in the trainable set and their analytic gradient is identically
    zero by construction.
    """
    idx = np.asarray(idx, dtype=np.intp)
    pi = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF0])).permutation(len(idx))

    # Pin the detached posteriors at the base point so both sides of the
    # comparison honor the stop-gradient.
    probs = None
    if cfg.lambda_sem > 0:
        probs = loss_cls(feats.visual[idx], state.text_features(cfg).mixed, feats.labels[idx],
                         cfg.logit_scale)[1]

    def objective() -> ad.Tensor:
        return forward_batch(state.params, feats, idx, state.bank, cfg, pi,
                             probs_override=probs)[0]

    flat = state.optimizer.values  # every parameter is a view of it

    def objective_at(j: int, value: float) -> float:
        flat[j] = value
        return objective().item()

    state.optimizer.zero_grad()
    ad.backward(objective())
    analytic = state.optimizer.grads.copy()

    per_param: dict[str, float] = {}
    for name, span in state.optimizer.spans.items():
        worst = 0.0
        for j in range(span.start, span.stop):
            keep = flat[j]
            f_p1, f_m1, f_p2, f_m2 = (objective_at(j, keep + m * FD_STEP)
                                      for m in (1, -1, 2, -2))
            flat[j] = keep
            numeric = (8.0 * (f_p1 - f_m1) - (f_p2 - f_m2)) / (12.0 * FD_STEP)
            denom = max(abs(analytic[j]), abs(numeric), _REL_FLOOR)
            worst = max(worst, abs(analytic[j] - numeric) / denom)
        per_param[name] = worst

    worst_param = max(per_param, key=per_param.get)
    return GradCheckReport(
        per_param=per_param, worst_param=worst_param,
        worst_error=per_param[worst_param], excluded=FROZEN_INPUTS,
    )


def fill_bank(state: TrainState, feats: CacheFeatures) -> None:
    """Absorb low-band embeddings (cycling over samples) until the bank fills."""
    if state.bank is None or state.bank.full:
        return
    rows = low_band_rows(state.params, feats.phi_base)
    free = state.bank.size - state.bank.fill_count
    absorb(state.bank, rows[np.arange(free) % len(rows)])


def run_gradient_check(cache: LatentCache, cfg: TrainConfig) -> GradCheckReport:
    """End-to-end harness: init, fill the bank, take `WARMUP_STEPS` steps on
    one batch, then check that batch."""
    state, feats = init_state(cache, cfg)
    fill_bank(state, feats)
    rng_batch = np.random.default_rng(seed_streams(cfg.seed)["batch"])
    rng_pi = np.random.default_rng(seed_streams(cfg.seed)["pi"])
    order = _stratified_order(feats.labels, rng_batch)
    idx = order[: cfg.batch_size]
    for _ in range(WARMUP_STEPS):
        pi = rng_pi.permutation(len(idx)) if cfg.lambda_gcf > 0 else None
        train_step(state, feats, idx, cfg, pi)
    return gradient_check(state, feats, idx, cfg)


# ---------------------------------------------------------------------------
# checkpoint format: a "# resolved-config" comment header, then the
# bank block ("BANK <fill_count>" and the bank dump, or "BANK none"), then one
# text block per parameter tensor (name, shape, rows). A bare "BANK" tag is
# the older form, written before the fill count was kept; it loads as full.


def format_header(items: dict[str, str]) -> list[str]:
    """The "# resolved-config" comment header: one "# key = value" line per
    item, sorted by key. `load_checkpoint` reads it back."""
    return ["# resolved-config", *(f"# {k} = {items[k]}" for k in sorted(items))]


def format_checkpoint(state: TrainState, header: dict[str, str] | None = None) -> str:
    """The checkpoint text of `state`. Its header holds the `header` items
    and the encoder's stamp, which wins over a `header` item of the same key:
    a checkpoint names the encoder it was trained over, however it was
    saved."""
    lines = format_header({**(header or {}), **state.encoder.stamp()})
    if state.bank is None:
        lines.append("BANK none")
    else:
        lines += [f"BANK {state.bank.fill_count}", format_bank(state.bank).rstrip("\n")]
    for name in sorted(state.params):
        value = state.params[name].value
        lines.append(f"PARAM {name}")
        lines += format_block(" ".join(str(d) for d in value.shape), np.atleast_2d(value))
    return "\n".join(lines) + "\n"


def save_checkpoint(path, state: TrainState, header: dict[str, str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_checkpoint(state, header))


def load_checkpoint(path) -> tuple[dict[str, tuple[int, str]], dict, SemanticBank | None]:
    """(header, values, bank) of a checkpoint, the header mapping the key of each
    "# key = value" line to (line number, value text); a fault names its line."""
    lines = read_lines(path, "checkpoint")
    header: dict[str, tuple[int, str]] = {}
    for i, (n, text) in enumerate(lines.items):
        key, eq, value = text[1:].partition("=")
        if text.startswith("#") and eq:
            if key.strip() in header:
                raise lines.error(i, f"header key {key.strip()!r} appears twice")
            header[key.strip()] = (n, value.strip())
    body = replace(lines, items=[item for item in lines.items if not item[1].startswith("#")])
    tag = body.values(0, str)
    if tag[0] != "BANK" or len(tag) > 2:
        raise body.error(0, f"expected a BANK block, got {body.items[0][1]!r}")
    bank, pos = None, 1
    if tag[1:] != ["none"]:  # a bare "BANK" passes no fill count: a full bank
        bank, pos = read_bank_block(body, 1, *body.values(0, int, tag[1:]))
    params: dict[str, np.ndarray] = {}
    while pos < len(body.items):
        tag = body.items[pos][1]
        if not tag.startswith("PARAM ") or tag[len("PARAM "):] in params:
            raise body.error(pos, f"expected a PARAM block of a new name, got {tag!r}")
        params[tag[len("PARAM "):]], _, pos = read_block(body, pos + 1)
    if _name_mismatch(params):
        # Every block is whole, so a file cut at a line break fails here.
        raise body.error(len(body.items), _name_mismatch(params))
    return header, params, bank


def _name_mismatch(names) -> str:
    """How `names` differ from the parameter table's; "" if they do not."""
    missing = sorted(set(PARAM_NAMES) - set(names))
    unexpected = sorted(set(names) - set(PARAM_NAMES))
    return (f"checkpoint parameters do not match the model: missing {missing}, "
            f"unexpected {unexpected}") if missing or unexpected else ""


def state_from_values(param_values: dict[str, np.ndarray], bank: SemanticBank | None,
                      encoder: ToyVisualEncoder, cfg: TrainConfig) -> TrainState:
    """Rebuild a usable state from checkpoint contents.

    The values must match `param_table` exactly: the same names, the shapes it
    gives for the class count of `text_raw`, the encoder's channels and
    `cfg.embed_dim`, and finite entries; the bank must have `cfg.embed_dim`
    columns. Anything else raises ParameterError.
    """
    if bank is not None and bank.dim != cfg.embed_dim:
        raise ParameterError(f"bank dim {bank.dim} does not match embed_dim {cfg.embed_dim}")
    if _name_mismatch(param_values):
        raise ParameterError(_name_mismatch(param_values))
    text_shape = np.shape(param_values["text_raw"])
    num_classes = text_shape[0] if text_shape else 0
    params: dict[str, ad.Tensor] = {}
    for name, (shape, _) in param_table(num_classes, encoder.grid[0], cfg.embed_dim).items():
        value = np.asarray(param_values[name], dtype=np.float64)
        if value.shape != shape:
            raise ParameterError(f"parameter {name!r} has shape {value.shape}, expected {shape}")
        if not np.all(np.isfinite(value)):
            raise ParameterError(f"parameter {name!r} has non-finite values")
        params[name] = ad.parameter(value)
    return TrainState(params=params, bank=bank, encoder=encoder,
                      optimizer=Adam(params, cfg.learning_rate))
