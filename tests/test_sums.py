"""The training step's sums, held to their `np.add.reduce` forms.

The program takes each row or column sum on the tape as a product with a
read-only ones vector from `ad.ONES`, one BLAS call, which adds in its own
order. These cases hold every helper and composite that sums that way to the
reduce forms kept in `reference_ops`, within SUM_RTOL of the largest entry,
on random inputs from one row up to the `b2n-train` widths.
"""

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.bands import head_graph
from bandprompt.bank import retrieve_rows
from bandprompt.granules import film_rows, fuse_rows
from bandprompt.losses import loss_sem
from reference_ops import (
    REDUCE_HELPERS,
    reduce_fuse_rows,
    reduce_layer_norm_forward,
    reduce_layer_norm_vjp,
    reduce_logit_cross_entropy,
    reduce_loss_sem,
    reduce_mlp_vjp,
    reduce_retrieve_rows,
    reduce_unit_rows,
    reduce_unit_rows_vjp,
)
from test_autodiff import mlp_arrays, value_and_vjp

SUM_RTOL = 1e-13
SHAPES = [(1, 1), (1, 5), (3, 4), (16, 16), (32, 32), (5, 33)]
SHAPE_IDS = [f"{n}x{d}" for n, d in SHAPES]


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= SUM_RTOL * np.max(np.abs(want), initial=0.0), err


def test_ones_vectors_are_built_once_and_read_only():
    ones = ad.ONES[7]
    assert ad.ONES[7] is ones and ones.dtype == np.float64
    assert np.array_equal(ones, np.ones(7)) and not ones.flags.writeable
    assert ad.ONES[0].shape == (0,)
    assert np.array_equal(np.zeros((3, 0)).dot(ad.ONES[0]), np.zeros(3))
    assert ad.ONES[0].dot(np.zeros((0, 2))).shape == (2,)


@pytest.mark.parametrize("n, d", SHAPES, ids=SHAPE_IDS)
def test_helpers_match_their_reduce_forms(n, d):
    rng = np.random.default_rng(n * 100 + d)
    x, g = 2.0 * rng.normal(size=(n, d)), rng.normal(size=(n, d))

    out, norms = ad.unit_rows(x)
    want_out, want_norms = reduce_unit_rows(x)
    assert_close(out, want_out)
    assert_close(norms, want_norms)
    assert_close(ad.unit_rows_vjp(g, out, norms), reduce_unit_rows_vjp(g, out, norms))

    gain, bias = rng.normal(size=d) + 1.0, rng.normal(size=d)
    forward = ad.layer_norm_forward(x, gain, bias)
    for got, want in zip(forward, reduce_layer_norm_forward(x, gain, bias)):
        assert_close(got, want)
    _, normed, std = forward
    assert_close(ad.layer_norm_vjp(g, gain, normed, std),
                 reduce_layer_norm_vjp(g, gain, normed, std))

    h = int(rng.integers(1, 9))
    w1, b1, w2, b2 = (ad.parameter(a) for a in mlp_arrays(rng, d, h, d))
    _, hidden = ad.mlp_forward(x, w1.value, b1.value, w2.value, b2.value)
    grads, gx = ad.mlp_vjp(g, x, hidden, w1, b1, w2, b2, True)
    want_grads, want_gx = reduce_mlp_vjp(g, x, hidden, w1, b1, w2, b2, True)
    assert [t for t, _ in grads] == [t for t, _ in want_grads]
    for (_, got), (_, want) in zip(grads, want_grads):
        assert_close(got, want)
    assert_close(gx, want_gx)


def composite_cases():
    """(id, composite, reduce form, arrays). Film and the band head sum only
    through the helpers, so their reduce form is the composite itself run
    with the helpers swapped for `REDUCE_HELPERS`."""
    for n, d in SHAPES:
        rng = np.random.default_rng(n * 100 + d + 1)
        tag = f"{n}x{d}"
        c, h = d + 1, int(rng.integers(1, 9))
        labels = rng.integers(0, c, size=n)
        # A saturated softmax leaves a gradient that is a difference of
        # near-equal posteriors, whose rounding no summation order fixes to
        # 1e-13 of the small result; a moderate scale keeps the comparison
        # about the sums.
        scale = float(rng.uniform(1.0, 10.0))
        visual, rows = rng.normal(size=(n, d)), rng.normal(size=(c, d))
        yield (f"logit_ce-{tag}",
               lambda v, r, y=labels, s=scale: ad.logit_cross_entropy(v, r, y, s)[0],
               lambda v, r, y=labels, s=scale: reduce_logit_cross_entropy(v, r, y, s)[0],
               [visual, rows])
        weights = np.repeat(np.eye(2), n, axis=1) / n
        y2 = np.tile(labels, 2)
        yield (f"logit_ce-{tag}-blocks",
               lambda v, r, y=y2, s=scale, w=weights: ad.logit_cross_entropy(v, r, y, s, w)[0],
               lambda v, r, y=y2, s=scale, w=weights:
                   reduce_logit_cross_entropy(v, r, y, s, w)[0],
               [np.tile(visual, (2, 1)), rows])
        fuse = mlp_arrays(rng, 2 * d, h, d) + [rng.normal(size=d) + 1.0, rng.normal(size=d)]
        yield (f"fuse-{tag}", fuse_rows, reduce_fuse_rows,
               [rng.normal(size=(n, d)), rng.normal(size=(n, d)), *fuse])
        yield (f"film-{tag}", film_rows, film_rows,
               [rng.normal(size=(n, d)), visual, *mlp_arrays(rng, d, h, 2 * d)])
        yield (f"head-{tag}", head_graph, head_graph,
               [np.abs(rng.normal(size=(n, d))) + 0.1, *mlp_arrays(rng, d, h, d)])
        entries = rng.normal(size=(int(rng.integers(1, 9)), d))
        entries /= np.linalg.norm(entries, axis=1, keepdims=True)
        yield (f"retrieve-{tag}",
               lambda q, e=entries: retrieve_rows(e, q, 0.07)[1],
               lambda q, e=entries: reduce_retrieve_rows(e, q, 0.07)[1],
               [rng.normal(size=(n, d))])
        probs = reduce_logit_cross_entropy(visual, rows, labels, scale)[1]
        yield (f"sem-{tag}",
               lambda r, lo, p=probs: loss_sem(p, r, lo),
               lambda r, lo, p=probs: reduce_loss_sem(p, r, lo),
               [rows + 0.1, rng.normal(size=(n, d)) + 0.1])


COMPOSITE_CASES = list(composite_cases())


@pytest.mark.parametrize("op, reduce_op, arrays", [c[1:] for c in COMPOSITE_CASES],
                         ids=[c[0] for c in COMPOSITE_CASES])
def test_composite_matches_its_reduce_form(op, reduce_op, arrays, monkeypatch):
    value, grads = value_and_vjp(op, arrays)
    for name, helper in REDUCE_HELPERS.items():
        monkeypatch.setattr(ad, name, helper)
    want_value, want_grads = value_and_vjp(reduce_op, arrays)
    assert_close(value, want_value)
    for got, want in zip(grads, want_grads):
        assert_close(got, want)


@pytest.mark.parametrize("n, d", SHAPES, ids=SHAPE_IDS)
def test_posteriors_match_the_reduce_softmax(n, d):
    rng = np.random.default_rng(n * 100 + d + 2)
    visual, rows = rng.normal(size=(n, d)), rng.normal(size=(d + 1, d))
    labels = rng.integers(0, d + 1, size=n)
    _, probs = ad.logit_cross_entropy(visual, rows, labels, 30.0)
    assert_close(probs, reduce_logit_cross_entropy(visual, rows, labels, 30.0)[1])


def test_a_training_step_matches_its_reduce_form(monkeypatch):
    """The objective and all 25 gradients of a default-config step, with every
    composite and helper swapped for its reduce form. `agg.ln_bias` has a
    true gradient of 0 (`test_autodiff.test_training_graph_matches_the_chains`)
    and is compared in absolute terms."""
    from bandprompt import refine, trainer
    from bandprompt.teacher import SyntheticSpec, generate_dataset

    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), n_per_class=8)
    cfg = trainer.TrainConfig(embed_dim=8, bank_size=6, seed=0)
    state, feats = trainer.init_state(cache, cfg)
    trainer.fill_bank(state, feats)
    idx = np.arange(0, 32, 2)
    pi = np.random.default_rng(0).permutation(len(idx))
    for _ in range(3):  # zero-initialized final layers start to carry signal
        trainer.train_step(state, feats, idx, cfg, pi)

    def objective_and_grads():
        total, _ = trainer.forward_batch(state.params, feats, idx, state.bank, cfg, pi)
        state.optimizer.zero_grad()
        ad.backward(total)
        return total.value, {k: p.grad.copy() for k, p in state.params.items()}

    total, grads = objective_and_grads()
    for name, helper in REDUCE_HELPERS.items():
        monkeypatch.setattr(ad, name, helper)
    for owner, name, reduce_form in [
        (ad, "logit_cross_entropy", reduce_logit_cross_entropy),
        (trainer, "fuse_rows", reduce_fuse_rows),
        (refine, "fuse_rows", reduce_fuse_rows),
        (refine, "retrieve_rows", reduce_retrieve_rows),
        (trainer, "loss_sem", reduce_loss_sem),
    ]:
        monkeypatch.setattr(owner, name, reduce_form)
    want_total, want_grads = objective_and_grads()
    assert_close(total, want_total)
    for name, want in want_grads.items():
        if name == "agg.ln_bias":
            assert np.max(np.abs(grads[name] - want)) <= SUM_RTOL
        else:
            assert_close(grads[name], want)
