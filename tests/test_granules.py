"""Granule fusion, FiLM modulation, and counterfactual swaps (tape composites
on one-row and batched inputs)."""

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.errors import ParameterError
from bandprompt.granules import check_permutation, film_rows, fuse_rows
from bandprompt.trainer import init_group
from reference_ops import square, tsum


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def layer_norm_oracle(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def test_fresh_fusion_standardizes_the_anchor():
    rng = np.random.default_rng(0)
    net = init_group("fuse", 0, 0, 4, rng).values()  # zero final affine at init
    anchor = rng.normal(size=(1, 4))
    granule = rng.normal(size=(1, 4))
    fused = fuse_rows(anchor, granule, *net).value
    assert np.allclose(fused, layer_norm_oracle(anchor), atol=1e-12)
    other = fuse_rows(anchor, rng.normal(size=(1, 4)), *net).value
    assert np.allclose(fused, other, atol=1e-12)


def test_fresh_film_is_the_identity_on_unit_vectors():
    rng = np.random.default_rng(1)
    net = init_group("film", 0, 0, 4, rng).values()  # zero final affine: gamma = beta = 0
    v = unit(rng.normal(size=4))
    out = film_rows(rng.normal(size=(1, 4)), v[None, :], *net).value[0]
    assert np.allclose(out, v, atol=1e-12)


def test_saturated_gamma_rescale_is_normalized_away():
    dim = 3
    net = (np.zeros((dim, dim)), np.zeros(dim), np.zeros((dim, 2 * dim)),
           np.concatenate([np.full(dim, 50.0), np.zeros(dim)]))
    v = unit(np.array([1.0, 2.0, -1.0]))
    # uniform gamma scales all coordinates equally; L2 norm removes it
    assert np.allclose(film_rows(np.zeros((1, dim)), v[None, :], *net).value[0], v, atol=1e-10)


def test_pinned_shift_only_modulation():
    dim = 2
    net = (np.zeros((dim, dim)), np.zeros(dim), np.zeros((dim, 2 * dim)),
           np.array([0.0, 0.0, 0.0, 1.0]))  # gamma = 0, beta = (0, 1)
    out = film_rows(np.zeros((1, dim)), np.array([[1.0, 0.0]]), *net).value[0]
    assert np.allclose(out, [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)


def test_film_batch_matches_single_rows():
    rng = np.random.default_rng(2)
    dim = 5
    net = init_group("film", 0, 0, dim, rng)
    net["film.w2"] = rng.normal(size=(dim, 2 * dim)) * 0.1
    codes = rng.normal(size=(3, dim))
    visual = np.stack([unit(rng.normal(size=dim)) for _ in range(3)])
    batch = film_rows(ad.lift(codes), ad.lift(visual),
                      *(ad.lift(p) for p in net.values())).value
    for i in range(3):
        single = film_rows(codes[i : i + 1], visual[i : i + 1], *net.values()).value
        assert np.allclose(batch[i], single[0], atol=1e-12)
    assert np.max(np.abs(np.linalg.norm(batch, axis=1) - 1.0)) <= 1e-12


def test_fusion_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    dim = 4
    net = init_group("fuse", 0, 0, dim, rng)
    net["fuse.w2"] = rng.normal(size=(dim, dim)) * 0.1
    anchors = rng.normal(size=(3, dim))
    granules = rng.normal(size=(3, dim))
    values = [p.copy() for p in net.values()]

    def objective(vals, g=None):
        params = tuple(ad.lift(v) for v in vals)
        gr = granules if g is None else g
        out = fuse_rows(ad.lift(anchors), ad.lift(gr), *params)
        return float(np.sum(out.value ** 2))

    params = tuple(ad.parameter(v) for v in values)
    g_in = ad.parameter(granules)
    out = fuse_rows(ad.lift(anchors), g_in, *params)
    ad.backward(tsum(square(out)))
    eps = 1e-6
    for pi_, p in enumerate(params):
        flat = p.value.reshape(-1)
        j = flat.size // 2
        bumped = [v.copy() for v in values]
        bumped[pi_].reshape(-1)[j] += eps
        dipped = [v.copy() for v in values]
        dipped[pi_].reshape(-1)[j] -= eps
        fd = (objective(bumped) - objective(dipped)) / (2 * eps)
        assert fd == pytest.approx(p.grad.reshape(-1)[j], rel=1e-4, abs=1e-7)
    # the granule input also carries gradient (it feeds the fused code)
    gp = granules.copy(); gp[1, 2] += eps
    gm = granules.copy(); gm[1, 2] -= eps
    fd = (objective(values, gp) - objective(values, gm)) / (2 * eps)
    assert fd == pytest.approx(g_in.grad[1, 2], rel=1e-4, abs=1e-7)


def test_permutation_validation():
    assert np.array_equal(check_permutation([2, 0, 1], 3), [2, 0, 1])
    for bad in ([0, 0, 1], [0, 1], [0, 1, 3], [[0, 1], [1, 0]]):
        with pytest.raises(ParameterError):
            check_permutation(bad, 3)


def test_counterfactual_swap_semantics():
    # the counterfactual block takes row i's granule from its donor pi[i]
    rng = np.random.default_rng(4)
    granules = rng.normal(size=(4, 3))
    pi = check_permutation(np.array([1, 3, 0, 2]), 4)
    swapped = ad.take_rows(ad.lift(granules), pi).value
    for i in range(4):
        assert np.array_equal(swapped[i], granules[pi[i]])
    # identity permutation preserves order; any permutation preserves multiset
    same = ad.take_rows(ad.lift(granules), np.arange(4)).value
    assert np.array_equal(same, granules)
    assert np.array_equal(np.sort(swapped, axis=0), np.sort(granules, axis=0))
