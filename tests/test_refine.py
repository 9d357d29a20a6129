"""Bank-conditioned refinement of class-text rows."""

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.bank import SemanticBank
from bandprompt.errors import BankStateError, ParameterError
from bandprompt.granules import fuse_rows
from bandprompt.refine import (
    TextFeatureSet,
    build_text_features,
    mix,
    refined_text_graph,
)
from bandprompt.trainer import init_group
from reference_ops import square, tsum


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
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(3, 4))
    refined = rng.normal(size=(3, 4))
    lo = mix(raw, refined, 0.0)
    hi = mix(raw, refined, 1.0)
    assert np.array_equal(lo, raw) and lo is not raw
    assert np.array_equal(hi, refined) and hi is not refined
    mid = mix(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 0.5)
    assert np.allclose(mid, [1.0, 1.0], atol=1e-12)
    with pytest.raises(ParameterError):
        mix(raw, refined, -0.1)
    with pytest.raises(ParameterError):
        mix(raw, refined, 1.1)


def test_interior_eta_mixes_raw_and_refined_rows():
    # (1 - eta) * raw + eta * refined, pinned away from eta = 1/2, where
    # swapping the two weights would give the same rows
    mixed = mix(np.array([[4.0, 0.0]]), np.array([[0.0, 8.0]]), 0.25)
    assert np.array_equal(mixed, [[3.0, 2.0]])
    rng = np.random.default_rng(10)
    dim = 4
    agg = fresh_aggregator(dim, rng)
    agg["agg.w2"] = rng.normal(size=(dim, dim)) * 0.2
    raw = rng.normal(size=(3, dim))
    feats = build_text_features(raw, full_bank(dim), tuple(agg.values()), eta=0.25)
    assert not np.allclose(feats.raw, feats.refined)
    expected = np.empty_like(raw)
    for i in range(3):
        for j in range(dim):
            expected[i, j] = 0.75 * raw[i, j] + 0.25 * feats.refined[i, j]
    assert np.allclose(feats.mixed, expected, rtol=0.0, atol=1e-15)


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
        ad.constant(raw), bank, tuple(ad.constant(p) for p in agg.values()),
    ).value
    for i in range(3):
        single = refined_text_graph(
            ad.constant(raw[i : i + 1]), bank, tuple(ad.constant(p) for p in agg.values()),
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
    params = tuple(ad.constant(p) for p in agg.values())
    a = refined_text_graph(ad.constant(raw), bank, params).value
    b = refined_text_graph(ad.constant(raw[perm]), bank, params).value
    assert np.allclose(a[perm], b, atol=1e-12)


def test_recomputation_is_bitwise_pure():
    rng = np.random.default_rng(6)
    dim = 6
    agg = fresh_aggregator(dim, rng)
    agg["agg.w2"] = rng.normal(size=(dim, dim)) * 0.1
    bank = full_bank(dim)
    raw = rng.normal(size=(3, dim))
    first = build_text_features(raw, bank, tuple(agg.values()), eta=0.7)
    second = build_text_features(raw, bank, tuple(agg.values()), eta=0.7)
    assert np.array_equal(first.refined, second.refined)
    assert np.array_equal(first.mixed, second.mixed)


def test_build_text_features_eta_endpoints():
    rng = np.random.default_rng(7)
    dim = 4
    agg = tuple(fresh_aggregator(dim, rng).values())
    bank = full_bank(dim)
    raw = rng.normal(size=(2, dim))
    at_zero = build_text_features(raw, bank, agg, eta=0.0)
    assert np.array_equal(at_zero.mixed, at_zero.raw)
    at_one = build_text_features(raw, bank, agg, eta=1.0)
    assert np.array_equal(at_one.mixed, at_one.refined)
    assert at_one.num_classes == 2


def test_bank_disabled_collapses_to_raw():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(3, 4))
    agg = tuple(fresh_aggregator(4, rng).values())
    rows = ad.parameter(raw)
    assert refined_text_graph(rows, None, agg) is rows
    assert np.array_equal(refined_text_graph(raw, None, agg).value, raw)
    for eta in (0.0, 0.3, 1.0):
        feats = build_text_features(raw, None, agg, eta=eta)
        assert np.array_equal(feats.refined, raw)
        assert np.array_equal(feats.mixed, raw)


def test_refinement_requires_a_full_bank():
    rng = np.random.default_rng(9)
    agg = tuple(fresh_aggregator(4, rng).values())
    raw = rng.normal(size=(2, 4))
    empty = SemanticBank.create(size=3, dim=4, momentum=0.1, temperature=0.07)
    with pytest.raises(BankStateError, match="0/3 filled"):
        refined_text_graph(raw, empty, agg)
    with pytest.raises(BankStateError):
        build_text_features(raw, empty, agg, eta=1.0)


def test_feature_set_validation():
    raw = np.zeros((2, 3))
    with pytest.raises(ParameterError):
        TextFeatureSet(raw=raw, refined=np.zeros((2, 4)), mixed=raw, eta=0.5)
    with pytest.raises(ParameterError):
        TextFeatureSet(raw=raw, refined=raw, mixed=raw, eta=1.5)


def test_aggregator_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    dim = 4
    agg = fresh_aggregator(dim, rng)
    agg["agg.w2"] = rng.normal(size=(dim, dim)) * 0.1
    bank = full_bank(dim)
    raw = rng.normal(size=(3, dim))
    values = [p.copy() for p in agg.values()]

    def objective(vals):
        params = tuple(ad.constant(v) for v in vals)
        out = refined_text_graph(ad.constant(raw), bank, params)
        return float(np.sum(out.value ** 2))

    params = tuple(ad.parameter(v) for v in values)
    out = refined_text_graph(ad.constant(raw), bank, params)
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
