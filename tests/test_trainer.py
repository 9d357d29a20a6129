"""Training loop: encoder, state init, steps, fill phase, checkpoints."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.bands import band_stats, factorize
from bandprompt.bank import SemanticBank
from bandprompt.errors import (BankFillError, BankStateError, NumericalDegeneracyError,
                               ParameterError)
from bandprompt.teacher import LatentCache, SyntheticSpec, generate_dataset
from bandprompt.trainer import (
    ENCODE_ROWS,
    FROZEN_INPUTS,
    MIN_BLOCK_ROWS,
    SMALL_PRODUCT,
    SPLIT_ROWS,
    Adam,
    ToyVisualEncoder,
    TrainConfig,
    check_bank_fills,
    compute_features,
    fill_bank,
    fit,
    format_checkpoint,
    forward_batch,
    gradient_check,
    init_state,
    load_checkpoint,
    low_band_rows,
    new_state,
    run_gradient_check,
    save_checkpoint,
    seed_streams,
    state_from_values,
    train_epochs,
    train_step,
)
from bandprompt.trainer import _block_edges
from reference_ops import (concatenating_adam_step, popping_stratified_order, pseudo_labels,
                           traced_peak, value_copy_low_band_rows, value_copy_text_features)

GRID = (4, 16, 16)


@pytest.fixture(scope="module")
def cache():
    return generate_dataset(SyntheticSpec(num_classes=4, seed=0), n_per_class=8)


def small_cfg(**kw):
    base = dict(embed_dim=8, bank_size=6, batch_size=5, epochs=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


FLOAT_FIELDS = ("lambda_sem", "lambda_gf", "lambda_gcf", "learning_rate", "logit_scale",
                "bank_tau", "eta", "bank_momentum")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_train_config_rejects_a_non_finite_float(name, value):
    # A NaN weight fails `> 0`, so it would drop its loss term unannounced.
    with pytest.raises(ParameterError, match=name):
        TrainConfig(**{name: value})


def test_train_config_rejects_a_negative_seed():
    # The seed feeds numpy's SeedSequence, which takes no negative integer.
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("draw", [lambda: ToyVisualEncoder.create(8, GRID, -1),
                                  lambda: seed_streams(-1)], ids=["encoder", "streams"])
def test_seed_draws_reject_a_negative_seed(draw):
    # A Python caller that skips TrainConfig still gets a typed error, not
    # numpy's bare ValueError from SeedSequence.
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        draw()


def test_encoder_outputs_unit_rows_deterministically(cache):
    enc_a = ToyVisualEncoder.create(8, GRID, seed=3)
    enc_b = ToyVisualEncoder.create(8, GRID, seed=3)
    assert np.array_equal(enc_a.weight, enc_b.weight)
    arrays = cache.arrays()[:6].astype(np.float64)
    out = enc_a.encode_batch(arrays)
    assert out.shape == (6, 8)
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-12
    assert np.array_equal(out, enc_b.encode_batch(arrays))
    other = ToyVisualEncoder.create(8, GRID, seed=4)
    assert not np.array_equal(enc_a.weight, other.weight)


def test_encoder_power_of_two_scale_invariance_is_bitwise(cache):
    # *2 multiplies every intermediate by an exact power of two, which
    # commutes with rounding, so the normalized output is identical
    enc = ToyVisualEncoder.create(8, GRID, seed=0)
    arrays = cache.arrays()[:4].astype(np.float64)
    assert np.array_equal(enc.encode_batch(arrays), enc.encode_batch(2.0 * arrays))


def test_encoder_validates_input(cache):
    enc = ToyVisualEncoder.create(8, GRID, seed=0)
    with pytest.raises(ParameterError):
        enc.encode_batch(np.zeros((2, 4, 8, 8)))
    with pytest.raises(ParameterError):
        enc.encode_batch(np.zeros(GRID))


# Row counts at the edges of the encoder's blocks at `embed_dim` 8, 16 and 32.
# Cases of dim 32, the first one tested, keep their bare `n` ids.
BLOCK_EDGE_CASES = [
    pytest.param(dim, n, id=str(n) if dim == 32 else f"{n}-dim{dim}")
    for dim in (32, 16, 8)
    for n in (1, 2, 63, 64, 65, 100, 127, 128, 129, 255, 256, 257, 258, 513, 2048)
]


@pytest.mark.parametrize("dim, n", BLOCK_EDGE_CASES)
def test_encoder_blocks_are_bitwise_the_whole_product(dim, n):
    # The row blocks must not change a bit of the single product, so no
    # block may be a one-row (matrix-vector) product unless n == 1, nor one
    # under BLAS's small-matrix switch unless the single product is too:
    # near-equal blocks of at most 64 rows differ at dim 16, n = 65.
    enc = ToyVisualEncoder.create(dim, GRID, seed=1)
    arrays = np.random.default_rng(n).normal(size=(n, *GRID)).astype(np.float32)
    raw = arrays.reshape(n, -1).astype(np.float64) @ enc.weight.T
    expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    assert np.array_equal(enc.encode_batch(arrays), expected)


@pytest.mark.parametrize("dim, cells", [(4, 1024), (8, 1024), (16, 1024), (32, 1024), (8, 256),
                                        (32, 128), (1, 1), (1000, 1024)])
def test_encoder_blocks_are_sized_by_their_product(dim, cells):
    floor = max(MIN_BLOCK_ROWS, SMALL_PRODUCT // (dim * cells) + 1)
    for n in [*range(0, 600), 767, 768, 769, 2047, 2048, 6000]:
        sizes = np.diff(_block_edges(n, dim, cells))
        assert sizes.sum() == n and sizes.min() >= 0
        assert len(sizes) == 1 or sizes.min() >= min(floor, ENCODE_ROWS // 2), (n, sizes)
        assert sizes.max() < 2 * floor and sizes.max() <= ENCODE_ROWS, (n, sizes)
        if 2 * floor <= ENCODE_ROWS and len(sizes) > 1:
            # every block is past the switch, so of one kernel with the whole
            assert sizes.min() * dim * cells > SMALL_PRODUCT, (n, sizes)
    # 4x16x16: 64-row blocks at `embed_dim` 16 or 32, 128-row ones at 8
    assert set(np.diff(_block_edges(768, 16, 1024))) == {MIN_BLOCK_ROWS}
    for n in (256, 512, 1536, 2048):
        assert set(np.diff(_block_edges(n, 8, 1024))) == {128}


@pytest.mark.parametrize("value, kind", [
    (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"), (0.0, "zero-length"),
])
def test_encoder_rejects_a_degenerate_row_by_its_index(value, kind):
    # Warnings are errors under pytest, so an inf that warned before the guard
    # would fail here as a RuntimeWarning rather than reach the guard.
    enc = ToyVisualEncoder.create(8, GRID, seed=0)
    arrays = np.random.default_rng(2).normal(size=(300, *GRID)).astype(np.float32)
    if value == 0.0:
        arrays[257] = 0.0
    else:
        arrays[257, 1, 2, 3] = value
    with pytest.raises(NumericalDegeneracyError, match=f"{kind}.*row 257"):
        enc.encode_batch(arrays)


def test_init_state_is_seeded_and_bitwise_repeatable(cache):
    cfg = small_cfg()
    a, _ = init_state(cache, cfg)
    b, _ = init_state(cache, cfg)
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name].value, b.params[name].value), name
    assert a.num_classes == 4
    assert not a.bank.full


def test_init_rejects_gapped_labels(cache):
    gapped = LatentCache(records=[r for r in cache.records if r.class_label != 1])
    with pytest.raises(ParameterError):
        init_state(gapped, small_cfg())
    with pytest.raises(ParameterError):
        init_state(LatentCache(records=[]), small_cfg())


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_new_state_rejects_a_non_finite_embedding_when_built(cache, value):
    # A fresh state is checked as a loaded one is, and its text rows start at
    # the class means, so a non-finite embedding fails before any step.
    cfg = small_cfg()
    state, feats = init_state(cache, cfg)
    visual = feats.visual.copy()
    visual[5, 2] = value
    with pytest.raises(ParameterError, match="'text_raw' has non-finite values"):
        new_state(replace(feats, visual=visual), state.encoder, cfg)


@pytest.mark.parametrize("width", [1, 9])
def test_new_state_rejects_features_of_another_width(cache, width):
    # Width 1 would broadcast against the (K, embed_dim) noise unchecked.
    cfg = small_cfg()
    state, feats = init_state(cache, cfg)
    visual = np.ones((len(feats.labels), width))
    with pytest.raises(ParameterError, match=re.escape("class means must be (num_classes, dim)")):
        new_state(replace(feats, visual=visual), state.encoder, cfg)


def first_batch(cfg):
    """The first five samples and a permutation."""
    pi = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9C])).permutation(5)
    return np.arange(5), pi


def test_init_state_returns_the_cache_features(cache):
    cfg = small_cfg()
    state, feats = init_state(cache, cfg)
    arrays = cache.arrays()
    ref = compute_features(arrays, np.arange(len(arrays)), state.encoder.encode_batch(arrays),
                           cache.labels(), cfg.kernel)
    for name in ("visual", "phi_base", "phi_detail", "labels"):
        assert np.array_equal(getattr(feats, name), getattr(ref, name)), name
    means = np.stack([feats.visual[feats.labels == c].mean(axis=0) for c in range(4)])
    assert np.max(np.abs(state.params["text_raw"].value - means)) < 0.1


def test_compute_features_matches_a_per_latent_loop(cache):
    # Any rows, in any order, repeats included: row i is latent rows[i].
    encoder = ToyVisualEncoder.create(8, GRID, seed=0)
    arrays = cache.arrays()
    rows = np.random.default_rng(1).permutation(len(arrays))[:21]
    rows[-1] = rows[0]
    visual = encoder.encode_batch(arrays)[rows]
    feats = compute_features(arrays, rows, visual, cache.labels()[rows], 5)
    for i, z in enumerate(arrays[rows]):
        pair = factorize(z, 5)
        assert np.array_equal(feats.phi_base[i], band_stats(pair.base)), i
        assert np.array_equal(feats.phi_detail[i], band_stats(pair.detail)), i
    assert feats.visual is visual
    assert np.array_equal(feats.labels, cache.labels()[rows])


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_compute_features_blocks_are_bitwise_the_whole_stack_split(n):
    arrays = np.random.default_rng(n).normal(size=(n, *GRID)).astype(np.float32)
    feats = compute_features(arrays, np.arange(n), np.zeros((n, 8)), np.zeros(n, np.int64), 7)
    pair = factorize(arrays, 7)
    assert np.array_equal(feats.phi_base, band_stats(pair.base))
    assert np.array_equal(feats.phi_detail, band_stats(pair.detail))


def test_compute_features_rejects_unpaired_rows():
    arrays = np.zeros((6, *GRID), np.float32)
    with pytest.raises(ParameterError, match="3 rows need as many embeddings and labels"):
        compute_features(arrays, np.arange(3), np.zeros((2, 8)), np.zeros(3, np.intp), 7)
    with pytest.raises(ParameterError, match=r"expected \(n, C, h, w\) latents"):
        compute_features(arrays[0], np.arange(3), np.zeros((3, 8)), np.zeros(3, np.intp), 7)


def test_compute_features_peak_does_not_grow_with_the_stack():
    # Beyond its outputs, the call holds one SPLIT_ROWS split, whatever the
    # stack's size n or the row count m: a whole-stack split of 1536 latents
    # would hold several 12 MiB float64 copies, and a gathered float32 copy
    # of its m = n / 2 rows 3 MiB.
    rng = np.random.default_rng(5)
    beyond = {}
    for n in (512, 1536):
        arrays = rng.normal(size=(n, *GRID)).astype(np.float32)
        rows = np.arange(n)[::-2].copy()
        visual = np.zeros((len(rows), 8))
        labels = np.zeros(len(rows), np.intp)
        compute_features(arrays, rows, visual, labels, 7)  # fill the table caches
        _, peak = traced_peak(compute_features, arrays, rows, visual, labels, 7)
        beyond[n] = peak - len(rows) * 8 * 2 * GRID[0]
    assert beyond[1536] < beyond[512] + (64 << 10), beyond
    assert beyond[1536] < MIN_BLOCK_ROWS * int(np.prod(GRID)) * 8 / 2, beyond


def test_encode_batch_peak_does_not_grow_with_the_stack():
    # Beyond its output, a call holds its one float64 block buffer (64 rows,
    # 0.5 MiB, at `embed_dim` 32 and 4x16x16) and one block's norms,
    # whatever n. The norms of the whole output at once would take an (n, d)
    # temporary: 2 MiB at n = 8192.
    encoder = ToyVisualEncoder.create(32, GRID, seed=0)
    rng = np.random.default_rng(6)
    beyond = {}
    for n in (2048, 8192):
        arrays = rng.random((n, *GRID), dtype=np.float32)
        out, peak = traced_peak(encoder.encode_batch, arrays)
        beyond[n] = peak - out.nbytes
    assert beyond[8192] < beyond[2048] + (64 << 10), beyond
    assert beyond[8192] < MIN_BLOCK_ROWS * int(np.prod(GRID)) * 8 + (128 << 10), beyond


def test_a_band_split_holds_under_half_an_encoder_block():
    # `compute_features` splits SPLIT_ROWS latents at a time, so the split's
    # float64 temporaries never set its peak, even beside the smallest block
    # buffer of many rows (MIN_BLOCK_ROWS, 0.5 MiB): the encoder's block does.
    arrays = np.random.default_rng(4).normal(size=(SPLIT_ROWS, *GRID)).astype(np.float32)
    factorize(arrays, 7)  # fill the table caches
    _, peak = traced_peak(factorize, arrays, 7)
    assert peak < MIN_BLOCK_ROWS * int(np.prod(GRID)) * 8 / 2, peak


def test_train_step_requires_a_full_bank(cache):
    cfg = small_cfg()
    state, feats = init_state(cache, cfg)
    idx, pi = first_batch(cfg)
    with pytest.raises(BankStateError):
        train_step(state, feats, idx, cfg, pi)


def optimizer_bytes(state) -> tuple[bytes, bytes]:
    """The optimizer's flat values and gradients, which every parameter views."""
    return state.optimizer.values.tobytes(), state.optimizer.grads.tobytes()


@pytest.mark.parametrize("proto", [False, True], ids=["trained-rows", "prototype-rows"])
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
def test_text_features_are_bitwise_the_value_copy_pass(cache, eta, proto):
    # The pass runs on the live parameters and reads the value; no `backward`
    # reads its nodes, so it moves no parameter and no gradient (the last
    # step's, still in the buffer), and it hands back a copy.
    cfg = small_cfg(eta=eta)
    state = fit(cache, cfg)
    raw = np.random.default_rng(1).normal(size=(3, cfg.embed_dim)) if proto else None
    before = optimizer_bytes(state)
    assert state.optimizer.grads.any() and (state.bank is None) == (eta == 0.0)
    text = state.text_features(cfg, raw)
    assert optimizer_bytes(state) == before
    assert text.mixed.tobytes() == value_copy_text_features(state, cfg, raw).mixed.tobytes()
    assert not np.shares_memory(text.mixed, state.optimizer.values)


def test_low_band_rows_are_bitwise_the_value_copy_pass(cache):
    cfg = small_cfg()
    state, feats = init_state(cache, cfg)
    train_epochs(state, feats, cfg, None)
    before = optimizer_bytes(state)
    rows = low_band_rows(state.params, feats.phi_base)
    assert optimizer_bytes(state) == before
    assert rows.tobytes() == value_copy_low_band_rows(state.params, feats.phi_base).tobytes()


def test_text_features_require_a_full_bank(cache):
    cfg = small_cfg()
    state, feats = init_state(cache, cfg)
    with pytest.raises(BankStateError, match="full bank"):
        state.text_features(cfg)
    fill_bank(state, feats)
    assert state.bank.full
    assert state.text_features(cfg).mixed.shape == (4, 8)


def test_bank_size_zero_trains_on_the_raw_rows(cache):
    cfg = small_cfg(bank_size=0, eta=0.3, anchor="refined_text_by_label", bank_refresh=True)
    state = fit(cache, cfg)
    assert state.bank is None and state.optimizer.t == 2 * 7  # no fill phase
    text = state.text_features(cfg)
    raw = state.params["text_raw"].value
    assert np.array_equal(text.mixed, raw)


def test_eta_zero_trains_no_aggregator(cache):
    # At eta = 0 the class rows are the raw rows, so no term, not even a
    # refined anchor, reaches the aggregator, and a step reads no bank: the
    # state builds none, and an empty one handed in is left untouched.
    cfg = small_cfg(eta=0.0, anchor="refined_text_by_label")
    state, feats = init_state(cache, cfg)
    assert state.bank is None
    state.bank = SemanticBank.create(cfg.bank_size, cfg.embed_dim, cfg.bank_momentum, cfg.bank_tau)
    before = state.param_values()
    train_step(state, feats, np.arange(5), cfg, np.array([3, 0, 4, 1, 2]))
    assert state.bank.fill_count == 0
    for name, span in state.optimizer.spans.items():
        grad = state.optimizer.grads[span]
        if name.startswith("agg."):
            assert np.array_equal(grad, np.zeros_like(grad)), name
            assert np.array_equal(state.params[name].value, before[name]), name
    assert np.any(state.params["text_raw"].grad != 0.0)


def test_eta_zero_fit_is_the_bankless_fit(cache):
    # Nothing reads a bank at eta = 0, so `bank_size` changes nothing: no fill
    # phase skips an update and no refresh draws from the batch stream.
    fits = [fit(cache, small_cfg(eta=0.0, bank_size=size, epochs=3, bank_refresh=True))
            for size in (64, 0)]
    assert [s.bank for s in fits] == [None, None]
    assert fits[0].optimizer.t == fits[1].optimizer.t == 3 * 7
    for name, value in fits[1].param_values().items():
        assert np.array_equal(fits[0].params[name].value, value), name


def test_zero_learning_rate_leaves_parameters_fixed(cache):
    cfg = small_cfg(learning_rate=0.0)
    state, feats = init_state(cache, cfg)
    idx, pi = first_batch(cfg)
    fill_bank(state, feats)
    before = state.param_values()
    parts = train_step(state, feats, idx, cfg, pi)
    assert np.isfinite(parts.total)
    for name, value in state.param_values().items():
        assert np.array_equal(value, before[name]), name


def test_disabled_terms_collapse_total_onto_cls(cache):
    cfg = small_cfg(lambda_sem=0.0, lambda_gf=0.0, lambda_gcf=0.0)
    state, feats = init_state(cache, cfg)
    idx, _ = first_batch(cfg)
    fill_bank(state, feats)
    parts = train_step(state, feats, idx, cfg, None)
    assert parts.sem is None and parts.granule_f is None and parts.granule_cf is None
    assert parts.total == parts.cls


def reachable_tensors(root):
    """Distinct tensors reachable from `root` through parent links."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_default_objective_tape_size(cache):
    # One node per composite a step calls: 11 op nodes over 25 parameters and
    # 5 constants. The factual and counterfactual granule terms share one
    # anchor gather, fusion, FiLM and cross-entropy node each, and the
    # high-band head embeds the donor rows, so no granule gather remains. The
    # primitive chains made the same objective reach 215 tensors, the partly
    # fused steps 116 and 55, the two-branch granule step 44 (15 op nodes)
    # and the stacked step with a granule gather 42 (12).
    cfg = TrainConfig()
    state, feats = init_state(cache, cfg)
    fill_bank(state, feats)
    idx = np.arange(cfg.batch_size)
    pi = np.random.default_rng(0).permutation(cfg.batch_size)
    total, _ = forward_batch(state.params, feats, idx, state.bank, cfg, pi)
    tensors = reachable_tensors(total)
    ops = [t for t in tensors if t._vjp is not None]
    params = [t for t in tensors if t.requires_grad and t._vjp is None]
    assert (len(tensors), len(ops), len(params)) == (41, 11, 25)
    assert {id(p) for p in params} == {id(p) for p in state.params.values()}


def test_a_step_hands_each_intermediate_a_gradient_of_its_own(cache):
    # `backward` keeps a node's first gradient without a copy, so no VJP may
    # hand out an array that another tensor holds.
    cfg = TrainConfig()
    state, feats = init_state(cache, cfg)
    fill_bank(state, feats)
    idx = np.arange(cfg.batch_size)
    pi = np.random.default_rng(0).permutation(cfg.batch_size)
    total, _ = forward_batch(state.params, feats, idx, state.bank, cfg, pi)
    state.optimizer.zero_grad()
    ad.backward(total)
    grads = [t.grad for t in reachable_tensors(total) if t._vjp is not None]
    assert len(grads) == 11 and all(g is not None for g in grads)
    grads.append(state.optimizer.grads)  # every parameter's gradient is a view of it
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


# A toy fit that prints the SHA-256 of its parameters and bank.
FINGERPRINT_SCRIPT = """
import hashlib
from bandprompt.teacher import SyntheticSpec, generate_dataset
from bandprompt.trainer import TrainConfig, fit
cache = generate_dataset(SyntheticSpec(num_classes=4, seed=2), n_per_class=16)
state = fit(cache, TrainConfig(embed_dim=16, bank_size=8, batch_size=8, epochs=4,
                               bank_refresh=True, seed=2))
digest = hashlib.sha256(state.optimizer.values.tobytes())
digest.update(state.bank.entries.tobytes())
print(digest.hexdigest())
"""


def test_fit_is_bitwise_equal_across_blas_thread_counts():
    src = str(Path(ad.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", FINGERPRINT_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def count_step_calls(state, feats, idx, cfg, pi) -> tuple[int, int, int]:
    """(Python-level, other C-level, `ndarray.dot`) calls that one
    `train_step` makes, as `sys.setprofile` reports them: function frames,
    builtins or methods implemented in C, such as numpy's `ufunc.reduce`, and
    of those the `ndarray.dot` calls apart. Array operators such as `a @ b`
    make no call event."""
    counts = {"call": 0, "c_call": 0, "dot": 0}

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__ == "dot" and isinstance(arg.__self__, np.ndarray):
            counts["dot"] += 1
        elif event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        train_step(state, feats, idx, cfg, pi)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"] - 1, counts["dot"]  # less `setprofile(None)`


# One default step's call counts. An `ndarray.sum/max/any/all` call adds a
# Python-level wrapper frame to its C reduction, a mask plus `any` adds calls
# to a guard, and a `len` or `np.array` in a VJP adds C-level calls, so any
# of them coming back shows here without a timing. Every sum and 2-D product
# of a step is one `ndarray.dot` call, so their count is exact: a product
# written as `@` again, which no profile event sees, lowers it.
STEP_CALL_BUDGET = (165, 189)
STEP_DOT_CALLS = 83


def test_default_step_stays_within_its_call_budget(cache):
    cfg = TrainConfig()
    state, feats = init_state(cache, cfg)
    fill_bank(state, feats)
    idx = np.arange(cfg.batch_size)
    pi = np.random.default_rng(0).permutation(cfg.batch_size)
    train_step(state, feats, idx, cfg, pi)  # first-call caches fill here
    py_calls, c_calls, dot_calls = counts = count_step_calls(state, feats, idx, cfg, pi)
    assert counts == count_step_calls(state, feats, idx, cfg, pi)
    assert py_calls <= STEP_CALL_BUDGET[0] and c_calls <= STEP_CALL_BUDGET[1], counts
    assert dot_calls == STEP_DOT_CALLS, counts


def test_a_step_runs_each_granule_layer_once(cache, monkeypatch):
    # Both granule terms go through one fusion, one FiLM and one loss call.
    from bandprompt import trainer

    calls = dict.fromkeys(("fuse_rows", "film_rows", "loss_granule"), 0)
    for name in calls:
        def counted(*args, _name=name, _f=getattr(trainer, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(trainer, name, counted)
    cfg = small_cfg()
    state, feats = init_state(cache, cfg)
    fill_bank(state, feats)
    parts = train_step(state, feats, np.arange(5), cfg, np.array([3, 0, 4, 1, 2]))
    assert calls == dict.fromkeys(calls, 1)
    assert parts.granule_f is not None and parts.granule_cf is not None


def test_forward_batch_takes_its_pseudo_labels_from_the_cls_term(cache, monkeypatch):
    # The semantic term reads the cls term's posteriors; a step computes no
    # second logits or softmax. It equals the term built from the separately
    # computed reference posteriors bitwise.
    from bandprompt import losses, trainer
    from bandprompt.refine import refined_text_graph

    cfg = small_cfg()
    state, feats = init_state(cache, cfg)
    fill_bank(state, feats)
    idx, pi = np.arange(5), np.array([3, 0, 4, 1, 2])
    text_pred = refined_text_graph(state.params["text_raw"], state.bank,
                                   trainer.group(state.params, "agg"), cfg.eta).value
    probs = pseudo_labels(feats.visual[idx], text_pred, cfg.logit_scale)
    _, want = forward_batch(state.params, feats, idx, state.bank, cfg, pi, probs_override=probs)

    def second_softmax(*args, **kwargs):
        raise AssertionError("a training step computed the cls posteriors twice")

    for owner in (losses, trainer):
        monkeypatch.setattr(owner, "pseudo_labels", second_softmax, raising=False)
    monkeypatch.setattr(losses, "class_logits", second_softmax)
    _, got = forward_batch(state.params, feats, idx, state.bank, cfg, pi)
    assert got.sem is not None
    assert (got.sem, got.total) == (want.sem, want.total)


def test_adam_step_allocates_no_full_length_temporary(cache):
    state, _ = init_state(cache, TrainConfig())
    opt = state.optimizer
    opt.grads[...] = np.random.default_rng(0).normal(size=opt.grads.shape)
    opt.step()
    _, peak = traced_peak(opt.step)
    assert peak < opt.values.nbytes, (peak, opt.values.nbytes)


def test_adam_flat_step_equals_the_per_tensor_loop():
    rng = np.random.default_rng(4)
    shapes = {"a": (3, 4), "b": (4,), "c": (2, 1), "d": (5,), "e": (2,)}
    params = {k: ad.parameter(rng.normal(size=s)) for k, s in shapes.items()}
    opt = Adam(params, lr=1e-2)
    ref = {k: p.value.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    for t in range(1, 5):
        opt.zero_grad()
        grads = {k: np.zeros(s) for k, s in shapes.items()}
        for k, p in params.items():
            # No gradient reaches "d", nor "e" on even steps: after `zero_grad`
            # each steps as with an exactly-zero gradient.
            if k != "d" and (k != "e" or t % 2):
                grads[k] = rng.normal(size=shapes[k])
                p.grad[...] = grads[k]
        opt.step()
        for k, p in params.items():
            g = grads[k]
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
            m_hat = m[k] / (1.0 - 0.9**t)
            v_hat = v[k] / (1.0 - 0.999**t)
            ref[k] = ref[k] - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(p.value, ref[k]), (t, k)


def assert_views(state):
    """Each parameter's `.value` and `.grad` are the views of its span of the
    optimizer's value and gradient vectors, spans laid out in `params` order
    and recorded in `Adam.spans`."""
    opt = state.optimizer
    assert opt.params is state.params
    assert list(opt.spans) == list(state.params)
    start = 0
    for name, p in state.params.items():
        assert opt.spans[name] == slice(start, start + p.value.size)
        for view, flat in ((p.value, opt.values), (p.grad, opt.grads)):
            assert np.shares_memory(view, flat) and view.flags.c_contiguous
            offset = view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
            assert offset == start * flat.itemsize
        start += p.value.size
    assert start == opt.values.size == opt.grads.size


def test_parameters_stay_views_of_the_optimizer_buffers(cache):
    cfg = small_cfg(embed_dim=2)
    state, feats = init_state(cache, cfg)
    assert_views(state)
    snapshot = state.param_values()
    kept = {k: v.copy() for k, v in snapshot.items()}
    initial = state.optimizer.values.copy()

    fill_bank(state, feats)
    idx = np.arange(cfg.batch_size)
    train_step(state, feats, idx, cfg, np.random.default_rng(0).permutation(len(idx)))
    assert_views(state)
    assert any(not np.array_equal(p.value, kept[k]) for k, p in state.params.items())

    values = state.optimizer.values.copy()
    gradient_check(state, feats, idx, cfg)
    assert_views(state)
    assert state.optimizer.values.tobytes() == values.tobytes()

    state.optimizer.values[...] = initial
    assert_views(state)
    assert all(np.array_equal(p.value, kept[k]) for k, p in state.params.items())

    loaded = state_from_values(snapshot, state.bank, state.encoder, cfg)
    assert_views(loaded)
    assert not any(np.shares_memory(loaded.optimizer.values, v) for v in snapshot.values())
    # The snapshot was copied out: steps and writes since did not reach it.
    assert all(snapshot[k].tobytes() == kept[k].tobytes() for k in kept)


def test_train_step_starts_from_zero_gradients(cache):
    # `backward` adds into the gradient buffer, so a step that skipped
    # `zero_grad` would train on whatever the buffer held before.
    cfg = small_cfg()

    def stepped(stale: float):
        state, feats = init_state(cache, cfg)
        fill_bank(state, feats)
        state.optimizer.grads.fill(stale)
        idx = np.arange(cfg.batch_size)
        train_step(state, feats, idx, cfg, np.random.default_rng(0).permutation(len(idx)))
        return state.optimizer.values.tobytes(), state.optimizer.grads.tobytes()

    assert stepped(1e3) == stepped(0.0)


@pytest.mark.parametrize("overrides", [
    dict(bank_size=6, bank_refresh=True),
    dict(bank_size=0),
    dict(anchor="refined_text_by_label"),
], ids=["bank-refresh", "no-bank", "refined-anchor"])
def test_in_place_step_trains_bitwise_like_the_concatenating_step(cache, monkeypatch,
                                                                   overrides):
    cfg = small_cfg(epochs=3, **overrides)

    def run():
        state = fit(cache, cfg)
        assert state.optimizer.t == 3 * 7 - (2 if cfg.bank_size else 0)
        bank = None if state.bank is None else state.bank.entries.tobytes()
        values = {k: v.tobytes() for k, v in state.param_values().items()}
        return values, bank, state.epoch_history

    got = run()
    monkeypatch.setattr(Adam, "step", concatenating_adam_step)
    want = run()
    assert got == want


def test_fit_fill_phase_consumes_whole_batches(cache):
    # 32 samples, batch 5 -> 7 batches/epoch; bank of 6 needs two fill
    # batches (5 + 1 absorbs), which take no optimizer step
    cfg = small_cfg(epochs=3)
    state = fit(cache, cfg)
    assert state.bank.full
    assert state.optimizer.t == 3 * 7 - 2
    assert len(state.epoch_history) == 3


def test_fit_trend_decreases_cls(cache):
    cfg = small_cfg(epochs=12, learning_rate=3e-3, seed=1)
    state = fit(cache, cfg)
    first = np.mean([p.cls for p in state.epoch_history[:3]])
    last = np.mean([p.cls for p in state.epoch_history[-3:]])
    assert last < first


def test_fit_is_bitwise_deterministic(cache):
    cfg = small_cfg(epochs=3)
    a = fit(cache, cfg)
    b = fit(cache, cfg)
    for name in a.params:
        assert np.array_equal(a.params[name].value, b.params[name].value), name
    assert np.array_equal(a.bank.entries, b.bank.entries)


def test_epochs_zero_is_an_initialized_no_op(cache):
    state = fit(cache, small_cfg(epochs=0))
    assert state.optimizer.t == 0 and state.epoch_history == []


@pytest.mark.parametrize("epochs, bank_size", [(0, 6), (1, 32), (1, 33), (2, 64), (2, 65)])
def test_check_bank_fills_exactly_when_the_epochs_fill_the_bank(cache, epochs, bank_size):
    # The fill phase absorbs every latent of an epoch: 32 here.
    cfg = small_cfg(epochs=epochs, bank_size=bank_size)
    fills = fit(cache, cfg).bank.full
    assert fills == (epochs * len(cache) >= bank_size)
    if fills:
        check_bank_fills(cfg, len(cache))
    else:
        with pytest.raises(BankFillError, match=rf"bank_size {bank_size} can never fill: "
                                                rf"epochs {epochs} over 32 latents"):
            check_bank_fills(cfg, len(cache))


def test_check_bank_fills_passes_without_a_bank(cache):
    for cfg in (small_cfg(epochs=0, bank_size=0), small_cfg(epochs=0, eta=0.0)):
        check_bank_fills(cfg, len(cache))
        assert fit(cache, cfg).bank is None


def test_counterfactual_flag_changes_film_training(cache):
    on = fit(cache, small_cfg(epochs=3))
    off = fit(cache, small_cfg(epochs=3, lambda_gcf=0.0))
    assert not np.array_equal(on.params["film.w2"].value, off.params["film.w2"].value)
    assert off.epoch_history[-1].granule_cf is None
    assert on.epoch_history[-1].granule_cf is not None


def test_bank_refresh_absorbs_half_the_cache_each_epoch(cache, monkeypatch):
    # two fill batches of 5 (the second fills the last slot and EMA-updates
    # with the other 4), then max(1, 32 // 2) rows after every epoch
    from bandprompt import trainer

    sizes = []
    absorb = trainer.absorb

    def counted(bank, rows):
        sizes.append(len(rows))
        return absorb(bank, rows)

    monkeypatch.setattr(trainer, "absorb", counted)
    fit(cache, small_cfg(epochs=3, bank_refresh=True))
    assert sizes == [5, 5, 16, 16, 16]
    sizes.clear()
    fit(cache, small_cfg(epochs=3))
    assert sizes == [5, 5]


def test_stratified_order_shuffles_the_class_order_of_each_round():
    # each round of four draws every class once, in a freshly permuted order
    from bandprompt.trainer import _stratified_order

    labels = np.repeat(np.arange(4), 8)
    order = _stratified_order(labels, np.random.default_rng(0))
    assert sorted(order.tolist()) == list(range(32))
    rounds = labels[order].reshape(8, 4).tolist()
    assert all(sorted(r) == [0, 1, 2, 3] for r in rounds)
    assert len({tuple(r) for r in rounds}) > 1


@pytest.mark.parametrize("labels", [
    np.repeat(np.arange(4), 8),
    np.array([2, 0, 0, 1, 0, 2, 0, 0, 3, 0]),
    np.random.default_rng(5).integers(0, 7, size=61),
    np.array([9, 4, 9]),
    np.array([1]),
], ids=["balanced", "unbalanced", "random", "gapped", "single"])
def test_stratified_order_equals_the_popping_loop(labels):
    # The same order bitwise from the same draws, leaving the stream in the
    # same state.
    from bandprompt.trainer import _stratified_order

    for seed in range(4):
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        order = _stratified_order(labels, rng)
        want = popping_stratified_order(labels, want_rng)
        assert order.dtype == want.dtype and np.array_equal(order, want)
        assert rng.bit_generator.state == want_rng.bit_generator.state


def test_bank_refresh_differs_only_in_entries(cache):
    plain = fit(cache, small_cfg(epochs=2))
    refreshed = fit(cache, small_cfg(epochs=2, bank_refresh=True))
    assert not np.array_equal(plain.bank.entries, refreshed.bank.entries)


def test_checkpoint_round_trip_is_exact(cache, tmp_path):
    cfg = small_cfg(epochs=2)
    state = fit(cache, cfg)
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, state, header={"seed": "0", "eta": "1.0"})
    header, values, bank = load_checkpoint(path)
    # each header item keeps its line: "# resolved-config", then sorted keys
    stamped = {"seed": "0", "eta": "1.0", **state.encoder.stamp()}
    assert header == {key: (n, stamped[key]) for n, key in enumerate(sorted(stamped), 2)}
    assert sorted(values) == sorted(state.params)
    for name, arr in values.items():
        ref = state.params[name].value
        assert arr.shape == ref.shape
        assert np.array_equal(arr, ref), name
    assert np.array_equal(bank.entries, state.bank.entries)
    assert bank.momentum == state.bank.momentum

    rebuilt = state_from_values(values, bank, state.encoder, cfg)
    feats_a = state.text_features(cfg)
    feats_b = rebuilt.text_features(cfg)
    assert np.array_equal(feats_a.mixed, feats_b.mixed)


def test_checkpoint_without_bank(cache, tmp_path):
    cfg = small_cfg(bank_size=0)
    state = fit(cache, cfg)
    assert state.bank is None
    path = tmp_path / "nobank.txt"
    save_checkpoint(path, state)
    assert "BANK none" in path.read_text().splitlines()
    header, values, bank = load_checkpoint(path)
    assert {key: value for key, (_, value) in header.items()} == state.encoder.stamp()
    assert bank is None
    assert "text_raw" in values


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("PARAM text_raw\n2 2\n0 0\n0 0\n")
    with pytest.raises(ParameterError, match="BANK"):
        load_checkpoint(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# resolved-config\n# seed = 0\n")
    with pytest.raises(ParameterError):
        load_checkpoint(empty)


def test_checkpoint_keeps_a_partial_bank_fill(cache, tmp_path):
    state = fit(cache, small_cfg(bank_size=64, epochs=1))
    assert state.bank.fill_count == 32 and not state.bank.full
    path = tmp_path / "partial.txt"
    save_checkpoint(path, state)
    _, _, bank = load_checkpoint(path)
    assert bank.fill_count == 32 and not bank.full
    assert np.array_equal(bank.entries, state.bank.entries)


def test_checkpoint_bare_bank_tag_loads_as_full(cache, tmp_path):
    state = fit(cache, small_cfg(epochs=1))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, state)
    lines = path.read_text().splitlines()
    start = lines.index(f"BANK {state.bank.size}")
    assert all(ln.startswith("#") for ln in lines[:start])
    lines[start] = "BANK"
    path.write_text("\n".join(lines) + "\n")
    _, values, bank = load_checkpoint(path)
    assert bank.full and np.array_equal(bank.entries, state.bank.entries)
    assert sorted(values) == sorted(state.params)


@pytest.mark.parametrize("garble", [
    lambda ls: ["BANK x"] + ls[1:],
    lambda ls: ls[:1] + ["6 8 0.1 tau"] + ls[2:],
    lambda ls: [("x16" if i > 0 and ls[i - 1].startswith("PARAM ") else ln)
                for i, ln in enumerate(ls)],
    lambda ls: ls[:-1] + [ls[-1] + " 1.0.0"],
    lambda ls: ls[:-1],
    lambda ls: ls + ls[ls.index("PARAM text_raw"):ls.index("PARAM text_raw") + 6],
], ids=["bank-fill", "bank-header", "shape", "row", "truncated", "duplicate"])
def test_checkpoint_malformed_numbers_raise_parameter_error(cache, tmp_path, garble):
    state = fit(cache, small_cfg(epochs=1))
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, state)
    lines = path.read_text().splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("BANK "))
    # The garbles read the body, which starts at the BANK block.
    path.write_text("\n".join(lines[:start] + garble(lines[start:])) + "\n")
    with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}:\d+: "):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", ["0 2", "2 0", "-1", "2 -1 -1"])
def test_a_block_size_below_one_names_its_line(tmp_path, shape):
    path = tmp_path / "ckpt.txt"
    path.write_text(f"# seed = 0\nBANK none\nPARAM text_raw\n{shape}\n1 0\n1 0\n")
    with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}:4: malformed checkpoint: "):
        load_checkpoint(path)


def test_every_strict_prefix_of_a_checkpoint_fails_naming_its_line(tmp_path):
    # A cut inside a line can leave a shorter number that still parses
    # ("-0.000381429" of "-0.0003814293688798754", or "-0.0"), so the
    # missing final newline is what fails it. A cut at a line break leaves
    # a short block or a missing parameter, named at the file's end.
    cache = generate_dataset(SyntheticSpec(num_classes=2, grid=(1, 4, 4), base_modes=1,
                                           detail_modes=1, seed=0), n_per_class=2)
    cfg = TrainConfig(embed_dim=2, kernel=3, bank_size=2, batch_size=2, epochs=1, seed=0)
    state = fit(cache, cfg)
    data = format_checkpoint(state).encode()
    path = tmp_path / "cut.txt"
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}:\d+: "):
            _, values, bank = load_checkpoint(path)
            state_from_values(values, bank, state.encoder, cfg)
    path.write_bytes(data)
    _, values, bank = load_checkpoint(path)
    assert state_from_values(values, bank, state.encoder, cfg).num_classes == 2


@pytest.mark.parametrize("kw", [{}, dict(lambda_gf=0.0), dict(lambda_gcf=0.0),
                                dict(anchor="refined_text_by_label"), dict(eta=0.5)],
                         ids=["default", "no-gf", "no-gcf", "refined-anchor", "eta-half"])
def test_gradient_check_passes_and_reports_frozen_inputs(cache, kw):
    # Every layout of the stacked granule pass: both blocks, one block each,
    # and anchors that carry the aggregator's gradient; and class rows that
    # mix raw and refined rows.
    cfg = small_cfg(**kw)
    report = run_gradient_check(cache, cfg)
    assert report.passed, (report.worst_param, report.worst_error)
    assert report.excluded == FROZEN_INPUTS
    assert set(report.per_param) == set(init_state(cache, cfg)[0].params)


def test_gradient_check_passes_on_a_high_curvature_coordinate():
    # On this seed a central difference at FD_STEP misreads a text_raw
    # coordinate with a small gradient by 2.8e-3 relative error.
    cache = generate_dataset(SyntheticSpec(num_classes=8, seed=30), n_per_class=32)
    report = run_gradient_check(cache, TrainConfig(embed_dim=8, seed=30))
    assert report.passed, (report.worst_param, report.worst_error)
