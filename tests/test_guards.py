"""Input guards pinned against their mask forms.

Each guard of the training step reduces its input once or twice instead of
building a mask and asking `any`/`all` of it, and the row norms and sums it
reads are products with `ad.ONES` (BLAS) rather than `np.add.reduce`. These
cases hold the accept and reject sets to the mask forms kept in
`reference_ops`, on the inputs where reductions differ: empty stacks, NaN,
+-inf, overflowing squares, negative, out-of-range and duplicate values.
"""

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.bank import SemanticBank, absorb
from bandprompt.errors import NumericalDegeneracyError, ParameterError
from bandprompt.granules import check_permutation
from bandprompt.losses import loss_sem
from reference_ops import (
    mask_bank_rows_rejects,
    mask_labels_accept,
    mask_sem_rejects,
    mask_unit_rows_accepts,
    sorting_permutation_accepts,
)

NAN, INF = np.nan, np.inf

UNIT_ROWS = {
    "plain": [[3.0, 4.0], [-1.0, 0.0]],
    "empty": np.zeros((0, 2)),
    "no-columns": np.zeros((2, 0)),
    "zero-row": [[1.0, 0.0], [0.0, 0.0]],
    "below-min-norm": [[1e-13, 0.0]],
    "at-min-norm": [[ad.MIN_NORM, 0.0]],
    "subnormal": [[5e-324, 0.0]],
    "nan": [[NAN, 1.0]],
    "all-nan": [[NAN, NAN]],
    "inf": [[INF, 1.0]],
    "minus-inf": [[1.0, -INF]],
    "overflowing-square": [[1e200, 1.0]],
    "nan-and-zero": [[NAN, 0.0], [0.0, 0.0]],
    "inf-and-minus-inf": [[INF, -INF]],
    "nan-and-inf": [[1.0, 0.0], [NAN, INF]],
    "empty-no-columns": np.zeros((0, 0)),
}


@pytest.mark.parametrize("x", UNIT_ROWS.values(), ids=UNIT_ROWS.keys())
def test_unit_rows_guard_matches_the_mask(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        want = mask_unit_rows_accepts(x)
        if want:
            out, norms = ad.unit_rows(x)
            assert out.shape == x.shape and norms.shape == (len(x), 1)
        else:
            with pytest.raises(NumericalDegeneracyError, match="row"):
                ad.unit_rows(x)


LABELS = {
    "plain": [0, 2, 1],
    "empty": [],
    "duplicates": [2, 2, 2],
    "negative": [0, -1, 1],
    "far-negative": [np.iinfo(np.intp).min],
    "at-count": [0, 3],
    "far-past-count": [np.iinfo(np.intp).max],
    "both-ends": [-1, 3],
}


@pytest.mark.parametrize("num_classes", [3, 1, 0])
@pytest.mark.parametrize("labels", LABELS.values(), ids=LABELS.keys())
def test_label_guard_matches_the_mask(labels, num_classes):
    labels = np.asarray(labels, dtype=np.intp)
    n = len(labels)
    visual, rows = np.ones((n, 2)), np.ones((num_classes, 2))
    weights = np.ones((1, n))  # a weighted sum: an empty batch divides by nothing
    if mask_labels_accept(labels, num_classes):
        if num_classes:  # no class rows leave no logits to take a maximum of
            ad.logit_cross_entropy(visual, rows, labels, 1.0, weights)
    else:
        with pytest.raises(ParameterError, match="label out of range"):
            ad.logit_cross_entropy(visual, rows, labels, 1.0, weights)


RAW_ROWS = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0]])
LOW = np.array([[1.0, 1.0], [0.5, -0.5]])

SEM_CASES = {
    "plain": ([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]], LOW),
    "empty": (np.zeros((0, 3)), np.zeros((0, 2))),
    "negative-below-tolerance": ([[1.0 + 1e-13, 0.0, -1e-13], [0.0, 1.0, 0.0]], LOW),
    "negative-past-tolerance": ([[1.0 + 1e-11, 0.0, -1e-11], [0.0, 1.0, 0.0]], LOW),
    "sum-off-inside-tolerance": ([[0.5, 0.5 + 5e-10, 0.0], [0.0, 1.0, 0.0]], LOW),
    "sum-off-past-tolerance": ([[0.5, 0.5 + 2e-9, 0.0], [0.0, 1.0, 0.0]], LOW),
    "nan": ([[NAN, 0.5, 0.5], [0.0, 1.0, 0.0]], LOW),
    "nan-beside-a-negative": ([[NAN, 0.5, 0.5], [1.5, 0.0, -0.5]], LOW),
    "nan-beside-an-off-sum": ([[NAN, 0.5, 0.5], [0.6, 0.6, 0.0]], LOW),
    "inf": ([[INF, 0.0, 0.0], [0.0, 1.0, 0.0]], LOW),
    "minus-inf": ([[-INF, 1.0, 0.0], [0.0, 1.0, 0.0]], LOW),
    "opposed-rows-cancel": ([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]], LOW),
    "zero-low-row": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]),
    "nan-low-row": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[NAN, 1.0], [1.0, 0.0]]),
    "inf-low-row": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[INF, 1.0], [1.0, 0.0]]),
    "nan-and-zero-norm": ([[NAN, 0.5, 0.5], [0.0, 1.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]),
    "inf-and-minus-inf": ([[INF, -INF, 1.0], [0.0, 1.0, 0.0]], LOW),
    "minus-inf-low-row": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[-INF, 1.0], [1.0, 0.0]]),
    "overflowing-low-row": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1e200, 1.0], [1.0, 0.0]]),
}


@pytest.mark.parametrize("probs, t_low", SEM_CASES.values(), ids=SEM_CASES.keys())
def test_loss_sem_guards_match_the_masks(probs, t_low):
    probs, t_low = np.asarray(probs, dtype=np.float64), np.asarray(t_low, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        want = mask_sem_rejects(probs, RAW_ROWS, t_low)
        if want is None:
            assert loss_sem(probs, RAW_ROWS, t_low).value.shape == ()
        elif want == "probs":
            with pytest.raises(ParameterError, match="pseudo-labels"):
                loss_sem(probs, RAW_ROWS, t_low)
        else:
            with pytest.raises(NumericalDegeneracyError, match="zero-length"):
                loss_sem(probs, RAW_ROWS, t_low)


PERMUTATIONS = {
    "plain": ([2, 0, 1], 3),
    "identity": ([0, 1, 2], 3),
    "empty": ([], 0),
    "empty-for-one": ([], 1),
    "single": ([0], 1),
    "duplicate": ([0, 0, 1], 3),
    "missing-and-past": ([0, 1, 3], 3),
    "negative": ([-1, 0, 1], 3),
    "wrapping-negative": ([-3, 1, 2], 3),
    "shifted": ([1, 2, 3], 3),
    "far-past": ([0, 1, 10**15], 3),
    "short": ([0, 1], 3),
    "long": ([0, 1, 2, 3], 3),
    "two-dimensional": ([[0, 1]], 2),
    "float-values": ([1.0, 0.0], 2),
}


@pytest.mark.parametrize("pi, n", PERMUTATIONS.values(), ids=PERMUTATIONS.keys())
def test_permutation_guard_matches_the_sort(pi, n):
    if sorting_permutation_accepts(pi, n):
        assert np.array_equal(check_permutation(pi, n), pi)
    else:
        with pytest.raises(ParameterError, match="permutation"):
            check_permutation(pi, n)


BANK_ROWS = {
    "plain": [[0.6, 0.8], [1.0, 0.0]],
    "empty": np.zeros((0, 2)),
    "inside-tolerance": [[1.0 + 5e-6, 0.0]],
    "past-tolerance": [[1.0 + 2e-5, 0.0]],
    "zero": [[0.0, 0.0]],
    "nan": [[NAN, 1.0]],
    "inf": [[INF, 0.0]],
    "inf-after-a-long-row": [[2.0, 0.0], [-INF, 0.0]],
    "overflowing-square": [[1e200, 0.0]],
    "overflowing-square-and-one": [[1e200, 1.0]],
    "minus-inf": [[-INF, 0.0]],
    "nan-row-after-a-unit-row": [[1.0, 0.0], [NAN, NAN]],
}


@pytest.mark.parametrize("rows", BANK_ROWS.values(), ids=BANK_ROWS.keys())
def test_bank_row_guard_matches_the_mask(rows):
    rows = np.asarray(rows, dtype=np.float64)
    bank = SemanticBank.create(size=4, dim=2, momentum=0.1, temperature=0.07)
    with np.errstate(over="ignore"):
        want = mask_bank_rows_rejects(rows)
        if want is None:
            absorb(bank, rows)
            assert bank.fill_count == len(rows)
        else:
            with pytest.raises(want):
                absorb(bank, rows)
            assert bank.fill_count == 0


@pytest.mark.parametrize("x", [*UNIT_ROWS.values(), *BANK_ROWS.values()],
                         ids=[*(f"unit-{k}" for k in UNIT_ROWS), *(f"bank-{k}" for k in BANK_ROWS)])
def test_dot_norms_match_the_reduce_norms(x):
    # The guards compare the norms the program sums with BLAS; NaN, +-inf and
    # an overflowing square must come out of the product as out of the ufunc.
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = x * x
        got = np.sqrt(squares.dot(ad.ONES[x.shape[1]]))
        want = np.sqrt(np.add.reduce(squares, axis=1))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, equal_nan=True)
