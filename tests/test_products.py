"""The 2-D products of the training, bank and scoring path, held to `ndarray.dot`.

Each such product is one `ndarray.dot` call (or `np.dot` with `out=`), which
dispatches in less time than the `@` operator at the tape's shapes and calls
the same BLAS routine with the same transpose flags, so the bits are the
same. These cases pin both halves of that: no module on the path spells a
product as `@` or `np.matmul`, and on this machine's BLAS `dot` and `@` agree
bitwise on every operand layout the step uses. A BLAS build where they
differ fails here, before it can silently change seeded outputs.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bandprompt"
DOT_MODULES = ("autodiff", "bank", "losses", "granules", "refine", "evaluate", "trainer")


def matmul_lines(text: str) -> list[int]:
    """Lines of `text` that multiply with `@`, `@=` or a `matmul` attribute."""
    return [node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr == "matmul"]


@pytest.mark.parametrize("module", DOT_MODULES)
def test_the_path_spells_every_product_as_dot(module):
    assert matmul_lines((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


def test_the_product_check_sees_every_spelling():
    assert sorted(matmul_lines("a @ b\nc @= d\nnp.matmul(a, b)\na.dot(b)\n")) == [1, 2, 3]


# (rows, inner, cols) of the step's products at the default and `b2n-train`
# widths, with a one-row batch and an odd width.
SHAPES = [(16, 16, 16), (16, 32, 64), (32, 32, 32), (16, 16, 8), (1, 16, 16), (5, 33, 3),
          (64, 16, 16)]


def layouts(rng, m, k, n):
    """(name, left, right) pairs in each layout the step multiplies."""
    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    at, bt = rng.normal(size=(k, m)), rng.normal(size=(n, k))
    return [
        ("rows-by-rows", a, b),  # x.dot(w1), probs.dot(rows), onehot.dot(g)
        ("rows-by-transposed", a, bt.T),  # g.dot(w2.T), v.dot(r.T), queries.dot(entries.T)
        ("transposed-by-rows", at.T, b),  # hidden.T.dot(g), x.T.dot(gh), probs.T.dot(gexp)
        ("matrix-by-vector", a, rng.normal(size=k)),  # entries.dot(vec), weights.dot(losses)
        ("vector-by-matrix", rng.normal(size=m), a),  # g.dot(weights)
        ("vector-by-vector", rng.normal(size=k), rng.normal(size=k)),  # a weighted vector term
    ]


@pytest.mark.parametrize("shape", SHAPES, ids=[f"{m}x{k}x{n}" for m, k, n in SHAPES])
def test_dot_and_the_operator_agree_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    for name, left, right in layouts(rng, *shape):
        got, want = left.dot(right), left @ right
        assert got.shape == want.shape and np.array_equal(got, want), name


@pytest.mark.parametrize("rows, cells, dim", [(64, 1024, 16), (256, 1024, 32), (1, 1024, 8),
                                              (100, 48, 5)])
def test_dot_into_a_row_block_agrees_with_matmul(rows, cells, dim):
    # `ToyVisualEncoder.encode_batch` writes each block's product into a row
    # slice of its output through `out=`.
    rng = np.random.default_rng(rows + dim)
    buffer, weight = rng.normal(size=(rows + 3, cells)), rng.normal(size=(dim, cells))
    got, want = np.zeros((rows + 7, dim)), np.zeros((rows + 7, dim))
    np.dot(buffer[:rows], weight.T, out=got[5:5 + rows])
    np.matmul(buffer[:rows], weight.T, out=want[5:5 + rows])
    assert np.array_equal(got, want)
