"""Bank-conditioned refinement of class-text rows."""

from dataclasses import replace

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.bank import SemanticBank, retrieve_rows
from bandprompt.errors import BankStateError, ParameterError
from bandprompt.granules import fuse_rows
from bandprompt.refine import refined_text_graph
from bandprompt.teacher import SyntheticSpec, generate_dataset
from bandprompt.trainer import TrainConfig, fill_bank, group, init_group, init_state
from reference_ops import mul, square, tsum


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def layer_norm_oracle(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def fresh_aggregator(dim, rng):
    return init_group("agg", 0, 0, dim, rng)


def zero_aggregator(dim):
    rng = np.random.default_rng(0)
    agg = fresh_aggregator(dim, rng)
    return tuple(agg.values())  # final affine is zero at init, so residual is identically zero


def test_fresh_aggregator_is_plain_layer_norm():
    rng = np.random.default_rng(1)
    agg = zero_aggregator(4)
    t = rng.normal(size=(1, 4))
    r = rng.normal(size=(1, 4))
    assert np.allclose(fuse_rows(t, r, *agg).value, layer_norm_oracle(t), atol=1e-12)


def test_pinned_two_dim_refinement():
    agg = zero_aggregator(2)
    out = fuse_rows(np.array([[1.0, 1.0]]), np.zeros((1, 2)), *agg).value[0]
    # constant row: LN maps to zeros
    assert np.allclose(out, [0.0, 0.0], atol=1e-3)
    out = fuse_rows(np.array([[2.0, 0.0]]), np.zeros((1, 2)), *agg).value[0]
    # mean 1, var 1: standardized to (+1, -1) up to the 1e-5 eps
    assert np.allclose(out, [1.0, -1.0], atol=1e-2)


def test_mix_endpoints_return_exact_copies():
    # The rows a state hands to prediction are a copy at either endpoint: at
    # eta = 0 they equal the trained rows, which are a view of `Adam.values`.
    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), n_per_class=4)
    cfg = TrainConfig(embed_dim=8, bank_size=4, batch_size=4, seed=0)
    state, feats = init_state(cache, cfg)
    fill_bank(state, feats)
    raw = state.params["text_raw"].value
    for eta in (0.0, 1.0):
        rows = state.text_features(replace(cfg, eta=eta)).mixed
        assert not np.shares_memory(rows, state.optimizer.values)
        assert np.array_equal(rows, raw) == (eta == 0.0)
        refined = refined_text_graph(raw, state.bank, group(state.params, "agg"), 1.0).value
        assert np.array_equal(rows, refined) == (eta == 1.0)


def test_interior_eta_mixes_raw_and_refined_rows():
    # (1 - eta) * raw + eta * refined, pinned away from eta = 1/2, where
    # swapping the two weights would give the same rows
    rng = np.random.default_rng(10)
    dim = 4
    agg = fresh_aggregator(dim, rng)
    agg["agg.w2"] = rng.normal(size=(dim, dim)) * 0.2
    raw = rng.normal(size=(3, dim))
    bank = full_bank(dim)
    refined = refined_text_graph(raw, bank, tuple(agg.values()), 1.0).value
    mixed = refined_text_graph(raw, bank, tuple(agg.values()), 0.25).value
    assert not np.allclose(raw, refined)
    expected = np.empty_like(raw)
    for i in range(3):
        for j in range(dim):
            expected[i, j] = 0.75 * raw[i, j] + 0.25 * refined[i, j]
    assert np.array_equal(mixed, expected)


def test_interior_eta_splits_the_gradient_between_raw_and_refined_rows():
    # The mix node hands (1 - eta) * g to the raw rows and eta * g to the
    # refined rows, so every gradient is the same convex combination of the
    # two endpoints' gradients.
    rng = np.random.default_rng(11)
    dim = 4
    agg = fresh_aggregator(dim, rng)
    agg["agg.w2"] = rng.normal(size=(dim, dim)) * 0.2
    raw = rng.normal(size=(3, dim))
    weights = rng.normal(size=(3, dim))
    bank = full_bank(dim)

    def grads(eta):
        rows = ad.parameter(raw)
        params = tuple(ad.parameter(v) for v in agg.values())
        out = refined_text_graph(rows, bank, params, eta)
        ad.backward(tsum(mul(out, weights)))
        return [rows.grad, *(p.grad for p in params)]

    at_zero, at_one, at_mid = grads(0.0), grads(1.0), grads(0.3)
    assert at_zero[0] is not None and all(g is None for g in at_zero[1:])
    for g0, g1, got in zip(at_zero, at_one, at_mid):
        want = 0.3 * g1 if g0 is None else 0.7 * g0 + 0.3 * g1
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def full_bank(dim, size=4, seed=3, temperature=0.07):
    rng = np.random.default_rng(seed)
    entries = np.stack([unit(rng.normal(size=dim)) for _ in range(size)])
    return SemanticBank(entries=entries, momentum=0.1, temperature=temperature,
                        fill_count=size)


def test_batch_refinement_matches_per_row():
    rng = np.random.default_rng(4)
    dim = 5
    agg = fresh_aggregator(dim, rng)
    agg["agg.w2"] = rng.normal(size=(dim, dim)) * 0.1  # make the residual nontrivial
    agg["agg.b2"] = rng.normal(size=dim) * 0.1
    bank = full_bank(dim)
    raw = rng.normal(size=(3, dim))
    batch = refined_text_graph(
        ad.lift(raw), bank, tuple(ad.lift(p) for p in agg.values()), 1.0,
    ).value
    for i in range(3):
        single = refined_text_graph(
            ad.lift(raw[i : i + 1]), bank, tuple(ad.lift(p) for p in agg.values()), 1.0,
        ).value
        assert np.allclose(batch[i], single[0], atol=1e-12)


def test_refinement_is_row_permutation_equivariant():
    rng = np.random.default_rng(5)
    dim = 4
    agg = fresh_aggregator(dim, rng)
    agg["agg.w2"] = rng.normal(size=(dim, dim)) * 0.2
    bank = full_bank(dim)
    raw = rng.normal(size=(4, dim))
    perm = np.array([2, 0, 3, 1])
    params = tuple(ad.lift(p) for p in agg.values())
    a = refined_text_graph(ad.lift(raw), bank, params, 1.0).value
    b = refined_text_graph(ad.lift(raw[perm]), bank, params, 1.0).value
    assert np.allclose(a[perm], b, atol=1e-12)


def test_recomputation_is_bitwise_pure():
    rng = np.random.default_rng(6)
    dim = 6
    agg = fresh_aggregator(dim, rng)
    agg["agg.w2"] = rng.normal(size=(dim, dim)) * 0.1
    bank = full_bank(dim)
    raw = rng.normal(size=(3, dim))
    first = refined_text_graph(raw, bank, tuple(agg.values()), 0.7).value
    second = refined_text_graph(raw, bank, tuple(agg.values()), 0.7).value
    assert np.array_equal(first, second)


def test_eta_endpoints_pick_the_raw_and_refined_rows():
    rng = np.random.default_rng(7)
    dim = 4
    agg = tuple(fresh_aggregator(dim, rng).values())
    bank = full_bank(dim)
    rows = ad.parameter(rng.normal(size=(2, dim)))
    assert refined_text_graph(rows, bank, agg, 0.0) is rows
    _, contexts = retrieve_rows(bank.entries, rows, bank.temperature)
    refined = refined_text_graph(rows, bank, agg, 1.0)
    assert np.array_equal(refined.value, fuse_rows(rows, contexts, *agg).value)
    assert refined._parents  # the refinement node itself, not a mix over it


def test_bank_disabled_collapses_to_raw():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(3, 4))
    agg = tuple(fresh_aggregator(4, rng).values())
    rows = ad.parameter(raw)
    assert np.array_equal(refined_text_graph(raw, None, agg, 1.0).value, raw)
    for eta in (0.0, 0.3, 1.0):
        assert refined_text_graph(rows, None, agg, eta) is rows


def test_refinement_requires_a_full_bank():
    rng = np.random.default_rng(9)
    agg = tuple(fresh_aggregator(4, rng).values())
    raw = rng.normal(size=(2, 4))
    empty = SemanticBank.create(size=3, dim=4, momentum=0.1, temperature=0.07)
    for eta in (0.5, 1.0):
        with pytest.raises(BankStateError, match="0/3 filled"):
            refined_text_graph(raw, empty, agg, eta)
    # eta = 0 reads the raw rows alone and needs no bank at all
    assert np.array_equal(refined_text_graph(raw, empty, agg, 0.0).value, raw)


def test_eta_outside_the_unit_interval_is_rejected():
    rng = np.random.default_rng(12)
    agg = tuple(fresh_aggregator(4, rng).values())
    for eta in (-0.1, 1.1, float("nan")):
        with pytest.raises(ParameterError, match="eta"):
            refined_text_graph(rng.normal(size=(2, 4)), full_bank(4), agg, eta)


def test_aggregator_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    dim = 4
    agg = fresh_aggregator(dim, rng)
    agg["agg.w2"] = rng.normal(size=(dim, dim)) * 0.1
    bank = full_bank(dim)
    raw = rng.normal(size=(3, dim))
    values = [p.copy() for p in agg.values()]

    def objective(vals):
        params = tuple(ad.lift(v) for v in vals)
        out = refined_text_graph(ad.lift(raw), bank, params, 1.0)
        return float(np.sum(out.value ** 2))

    params = tuple(ad.parameter(v) for v in values)
    out = refined_text_graph(ad.lift(raw), bank, params, 1.0)
    ad.backward(tsum(square(out)))
    eps = 1e-6
    for pi, p in enumerate(params):
        flat = p.value.reshape(-1)
        for j in range(0, flat.size, max(1, flat.size // 3)):
            bumped = [v.copy() for v in values]
            bumped[pi].reshape(-1)[j] += eps
            dipped = [v.copy() for v in values]
            dipped[pi].reshape(-1)[j] -= eps
            fd = (objective(bumped) - objective(dipped)) / (2 * eps)
            got = p.grad.reshape(-1)[j]
            assert fd == pytest.approx(got, rel=1e-4, abs=1e-7)
