"""Objective terms: classification, semantic consistency, granule CE."""

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.errors import DivergenceError, NumericalDegeneracyError, ParameterError
from bandprompt.losses import (
    LossBreakdown,
    class_logits,
    combine,
    loss_cls,
    loss_granule,
    loss_sem,
)
from reference_ops import chain_loss_sem, mul, pseudo_labels, tsum


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_two_class_symmetric_logits_give_ln2():
    rows = np.eye(2)
    v = unit([1.0, 1.0])[None, :]
    loss, _ = loss_cls(v, rows, [0], scale=1.0)
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_correct_confident_logits_drive_loss_to_zero():
    rows = np.eye(2)
    v = np.array([[1.0, 0.0]])
    loss, _ = loss_cls(v, rows, [0], scale=100.0)
    assert loss.item() < 1e-6


def test_appending_an_opposed_row_barely_moves_the_loss():
    v = np.array([[1.0, 0.0]])
    rows2 = np.eye(2)
    rows3 = np.vstack([np.eye(2), -v])
    a = loss_cls(v, rows2, [0], scale=100.0)[0].item()
    b = loss_cls(v, rows3, [0], scale=100.0)[0].item()
    assert abs(a - b) < 1e-6


def test_pseudo_labels_pinned_and_detached():
    # The pseudo-labels are the cls term's posteriors: a read-only plain
    # array, bitwise the separately computed softmax of the same logits.
    rows = np.eye(2)
    v = np.array([[1.0, 0.0]])
    _, probs = loss_cls(v, ad.parameter(rows), [0], scale=1.0)
    assert np.allclose(probs, [[0.73106, 0.26894]], atol=1e-5)
    assert isinstance(probs, np.ndarray) and not probs.flags.writeable
    assert np.array_equal(probs, pseudo_labels(v, rows, 1.0))
    _, sym = loss_cls(unit([1.0, 1.0])[None, :], rows, [1], scale=7.0)
    assert np.allclose(sym, [[0.5, 0.5]], atol=1e-12)
    rng = np.random.default_rng(4)
    v, rows = rng.normal(size=(16, 8)), rng.normal(size=(16, 8))
    _, probs = loss_cls(v, rows, rng.integers(0, 16, size=16), 100.0)
    assert np.array_equal(probs, pseudo_labels(v, rows, 100.0))


def test_expected_text_validates_distributions():
    # the semantic term's pseudo-labels must be one distribution per row
    rows = np.eye(2)
    t_low = np.array([[0.25, 0.75]])
    with pytest.raises(ParameterError):
        loss_sem(np.array([[0.5, 0.4]]), rows, t_low)
    with pytest.raises(ParameterError):
        loss_sem(np.array([[1.2, -0.2]]), rows, t_low)
    # raw rows are normalized before mixing: the expected text vector is
    # [0.25, 0.75], aligned with t_low and orthogonal to [0.75, -0.25]
    probs = np.array([[0.25, 0.75]])
    assert loss_sem(probs, 2.0 * rows, t_low).item() == pytest.approx(0.0, abs=1e-12)
    assert loss_sem(probs, 2.0 * rows, [[0.75, -0.25]]).item() == pytest.approx(1.0, abs=1e-12)


def test_sem_loss_alignment_extremes():
    rows = np.eye(2)
    probs = np.array([[1.0, 0.0]])
    aligned = loss_sem(probs, rows, np.array([[1.0, 0.0]]))
    assert aligned.item() == pytest.approx(0.0, abs=1e-9)
    orthogonal = loss_sem(probs, rows, np.array([[0.0, 1.0]]))
    assert orthogonal.item() == pytest.approx(1.0, abs=1e-9)
    opposed = loss_sem(probs, rows, np.array([[-1.0, 0.0]]))
    assert opposed.item() == pytest.approx(2.0, abs=1e-9)


def test_sem_gradient_reaches_the_low_band_only_through_t_low():
    # pinned pseudo-labels are plain arrays: perturbing the text rows through
    # them is impossible by construction, and the aggregator never appears
    rng = np.random.default_rng(0)
    rows = ad.parameter(np.stack([unit(rng.normal(size=3)) for _ in range(2)]))
    t_low = ad.parameter(np.stack([unit(rng.normal(size=3)) for _ in range(4)]))
    probs = np.abs(rng.normal(size=(4, 2)))
    probs /= probs.sum(axis=1, keepdims=True)
    loss = loss_sem(probs, rows, t_low)
    ad.backward(loss)
    assert t_low.grad is not None and np.any(t_low.grad != 0.0)
    assert rows.grad is not None  # rows enter through the expected text vectors


def test_sem_term_is_one_node_equal_to_its_chain():
    """One tape node over the raw rows and t_low, whose value and gradients
    equal the five-node chain's bitwise."""
    rng = np.random.default_rng(3)
    raw, low = rng.normal(size=(3, 5)), rng.normal(size=(6, 5))
    probs = pseudo_labels(rng.normal(size=(6, 5)), raw, 10.0)

    def run(term):
        rows, t_low = ad.parameter(raw), ad.parameter(low)
        loss = term(probs, rows, t_low)
        ad.backward(tsum(mul(loss, 0.7)))
        return loss, rows.grad, t_low.grad

    loss, g_rows, g_low = run(loss_sem)
    want, want_rows, want_low = run(chain_loss_sem)
    assert len(loss._parents) == 2
    assert np.array_equal(loss.value, want.value)
    assert np.array_equal(g_rows, want_rows) and np.array_equal(g_low, want_low)
    with pytest.raises(NumericalDegeneracyError):
        loss_sem(probs, raw, np.zeros_like(low))


def test_granule_loss_uniform_when_codes_are_uninformative():
    rows = np.eye(4)
    v = np.zeros((2, 4))
    v[:, :] = 0.0
    loss = loss_granule(np.full((2, 4), 0.0) + unit(np.ones(4)), rows, [1, 2], scale=1.0)
    # equidistant embedding: exactly uniform posterior over 4 classes
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-9)


def test_granule_blocks_give_each_blocks_mean():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(4, 6))
    first, second = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
    y1, y2 = np.array([0, 3, 1]), np.array([2, 2, 0])
    both = loss_granule(np.vstack([first, second]), rows, np.concatenate([y1, y2]), 7.0, blocks=2)
    want = [loss_granule(first, rows, y1, 7.0).item(), loss_granule(second, rows, y2, 7.0).item()]
    assert both.value.shape == (2,)
    assert np.max(np.abs(both.value - want)) <= 1e-12 * np.max(np.abs(want))


def test_combine_weighted_total_pinned():
    cls = ad.constant(1.0)
    sem = ad.constant(2.0)
    granule = ad.constant([3.0, 4.0])  # granule_f, granule_cf
    total, parts = combine(cls, sem, granule, 0.1, 0.2, 0.3)
    assert total.item() == pytest.approx(3.0, abs=1e-12)
    assert parts.total == pytest.approx(3.0, abs=1e-12)
    recombined = parts.cls + 0.1 * parts.sem + 0.2 * parts.granule_f + 0.3 * parts.granule_cf
    assert recombined == pytest.approx(parts.total, abs=1e-12)


def test_absent_terms_leave_total_equal_to_cls():
    cls = ad.constant(1.2345)
    total, parts = combine(cls, None, None, 0.1, 0.1, 0.1)
    assert total is cls  # reuses the tensor: zero contribution is structural
    assert parts.sem is None and parts.granule_f is None and parts.granule_cf is None
    assert parts.total == parts.cls


def test_zero_lambda_matches_absent_term_in_value():
    cls = ad.constant(0.5)
    sem = ad.constant(9.0)
    total, parts = combine(cls, sem, None, 0.0, 0.1, 0.1)
    assert total.item() == 0.5
    assert parts.sem == 9.0  # still reported even though weighted to zero


def test_non_finite_losses_are_named():
    parts = LossBreakdown(cls=np.inf, sem=None, granule_f=None, granule_cf=None, total=np.inf)
    with pytest.raises(DivergenceError, match="cls"):
        parts.check_finite()


@pytest.mark.parametrize("sem, granule, lambda_sem, name", [
    (np.inf, [1.0, 2.0], 0.1, "sem"),
    (np.nan, [1.0, 2.0], 0.0, "sem"),         # a zero weight still reports the term
    (1.0, [np.nan, 2.0], 0.1, "granule_f"),
    (1.0, [1.0, -np.inf], 0.1, "granule_cf"),
    (1e308, [1e308, 1e308], 10.0, "total"),   # finite terms, overflowing total
])
def test_combine_names_the_first_non_finite_term(sem, granule, lambda_sem, name):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match=f"'{name}'"):
            combine(ad.constant(1.0), ad.constant(sem), ad.constant(granule),
                    lambda_sem, 0.2, 0.3)


def test_class_logits_validation_and_shape():
    rows = np.eye(3)
    v = np.zeros((2, 3))
    logits = class_logits(v, rows, 100.0)
    assert isinstance(logits, np.ndarray) and logits.shape == (2, 3)
    with pytest.raises(ParameterError):
        class_logits(v, rows, 0.0)
    with pytest.raises(ParameterError, match=r"\(2, 3\).*\(4, 2\)"):
        class_logits(np.ones((2, 3)), np.ones((4, 2)), 1.0)  # widths differ
    with pytest.raises(ParameterError):
        loss_cls(v, rows, [0], scale=100.0)  # one label for two rows


def test_losses_take_row_batches_only():
    rows = np.eye(2)
    for visual in (np.array([1.0, 0.0]), ad.parameter(np.array([1.0, 0.0]))):
        with pytest.raises(ParameterError):
            loss_cls(visual, rows, [0], 100.0)
        with pytest.raises(ParameterError):
            loss_granule(visual, rows, [0], 100.0)
        with pytest.raises(ParameterError):
            loss_sem(np.array([[1.0, 0.0]]), rows, visual)
    with pytest.raises(ParameterError):
        loss_sem(np.array([0.5, 0.5]), rows, np.array([[1.0, 0.0]]))
    with pytest.raises(ParameterError):
        loss_cls(np.zeros((1, 1, 2)), rows, [0], 100.0)


def test_sem_term_rejects_pseudo_labels_of_another_class_count():
    with pytest.raises(ParameterError, match=r"\(1, 3\).*\(2, 2\)"):
        loss_sem(np.full((1, 3), 1 / 3), np.eye(2), [[1.0, 0.0]])


def test_cls_term_rejects_rows_of_another_width():
    with pytest.raises(ParameterError, match=r"\(2, 3\).*\(4, 2\)"):
        loss_cls(np.ones((2, 3)), np.ones((4, 2)), [0, 1], 1.0)


def test_cls_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    n, c, d = 4, 3, 5
    rows0 = np.stack([unit(rng.normal(size=d)) for _ in range(c)])
    v = np.stack([unit(rng.normal(size=d)) for _ in range(n)])
    y = rng.integers(0, c, size=n)

    rows = ad.parameter(rows0)
    loss, _ = loss_cls(v, rows, y, scale=10.0)
    ad.backward(loss)
    eps = 1e-6
    for i, j in ((0, 0), (1, 3), (2, 4)):
        up = rows0.copy(); up[i, j] += eps
        dn = rows0.copy(); dn[i, j] -= eps
        fd = (loss_cls(v, up, y, scale=10.0)[0].item()
              - loss_cls(v, dn, y, scale=10.0)[0].item()) / (2 * eps)
        assert fd == pytest.approx(rows.grad[i, j], rel=1e-5, abs=1e-8)


def test_counterfactual_term_with_identity_swap_equals_factual():
    rng = np.random.default_rng(2)
    n, c, d = 3, 4, 6
    rows = np.stack([unit(rng.normal(size=d)) for _ in range(c)])
    modulated = np.stack([unit(rng.normal(size=d)) for _ in range(n)])
    y = np.array([0, 2, 1])
    pi = np.arange(n)
    factual = loss_granule(modulated, rows, y, scale=25.0)
    counter = loss_granule(modulated, rows, y[pi], scale=25.0)
    assert counter.item() == factual.item()
