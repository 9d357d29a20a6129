"""Finite-difference and structural checks for the reverse-mode tape."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.errors import NumericalDegeneracyError, ParameterError
from reference_ops import (
    add,
    add_at_take_rows_grad,
    affine,
    chain_loss_sem,
    chain_retrieve_rows,
    concat_cols,
    cols,
    cosine_rows,
    div,
    exp,
    l2normalize_rows,
    log,
    matmul,
    mul,
    pseudo_labels,
    softmax_rows,
    sqrt,
    square,
    sub,
    tanh,
    tmean,
    transpose,
    tsum,
    two_branch_forward_batch,
    unbroadcast,
    zero_grads,
)


def numeric_grad(f, x, step=1e-6):
    """Central differences of a scalar function over every entry of x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        fp = f()
        flat[i] = keep - step
        fm = f()
        flat[i] = keep
        out[i] = (fp - fm) / (2.0 * step)
    return g


def check_scalar_fn(build, *arrays, step=1e-6, tol=1e-6):
    """`build(*tensors)` must return a tape scalar; compares grads to FD."""
    params = [ad.parameter(a) for a in arrays]
    root = build(*params)
    ad.backward(root)
    for p, a in zip(params, arrays):
        def f(p=p):
            return build(*params).value.item()
        num = numeric_grad(f, p.value, step)
        assert p.grad is not None
        err = np.max(np.abs(p.grad - num) / np.maximum(np.abs(num), 1.0))
        assert err < tol, f"gradient mismatch: {err}"


# One-node wrappers of the program's array-level algebra, so each formula is
# checked on its own against its chain and against finite differences.


def mlp_rows(x, w1, b1, w2, b2):
    """`ad.mlp_forward` / `ad.mlp_vjp` as one node."""
    x, *params = (ad.lift(t) for t in (x, w1, b1, w2, b2))
    out, hidden = ad.mlp_forward(x.value, *(p.value for p in params))

    def vjp(g):
        grads, gx = ad.mlp_vjp(g, x.value, hidden, *params, x.requires_grad)
        return grads if gx is None else grads + [(x, gx)]

    return ad.node(out, (x, *params), vjp)


def layer_norm_rows(x, gain, bias):
    """`ad.layer_norm_forward` / `ad.layer_norm_vjp` as one node."""
    x, gain, bias = ad.lift(x), ad.lift(gain), ad.lift(bias)
    out, normed, std = ad.layer_norm_forward(x.value, gain.value, bias.value)

    def vjp(g):
        return (
            (x, ad.layer_norm_vjp(g, gain.value, normed, std)),
            (gain, unbroadcast(g * normed, gain.value.shape)),
            (bias, unbroadcast(g, bias.value.shape)),
        )

    return ad.node(out, (x, gain, bias), vjp)


def cross_entropy_mean(logits, labels):
    """`ad.logit_cross_entropy` against identity class rows at scale 1, which
    leave the logits exact."""
    logits = ad.lift(logits)
    eye = ad.constant(np.eye(logits.value.shape[1]))
    return ad.logit_cross_entropy(logits, eye, labels, 1.0)[0]


def test_add_mul_broadcasting_grads():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    check_scalar_fn(lambda x, y: tsum(mul(add(x, y), add(x, 2.0))), a, b)


def test_matmul_transpose_grads():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check_scalar_fn(lambda x, y: tsum(matmul(x, y)), a, b)
    check_scalar_fn(lambda x, y: tsum(matmul(transpose(y), transpose(x))), a, b)


def test_unary_grads():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 5))
    pos = np.abs(a) + 0.5
    check_scalar_fn(lambda x: tsum(tanh(x)), a)
    check_scalar_fn(lambda x: tsum(exp(x)), a)
    check_scalar_fn(lambda x: tsum(log(x)), pos)
    check_scalar_fn(lambda x: tsum(sqrt(x)), pos)
    check_scalar_fn(lambda x: tsum(square(x)), a)
    check_scalar_fn(lambda x: tmean(div(1.0, x)), pos)


def test_reduction_axis_grads():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 3))
    check_scalar_fn(lambda x: tsum(square(tsum(x, axis=1))), a)
    check_scalar_fn(lambda x: tsum(square(tmean(x, axis=0, keepdims=True))), a)


def test_concat_cols_and_cols_grads():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 3))
    check_scalar_fn(lambda x, y: tsum(square(concat_cols(x, y))), a, b)
    check_scalar_fn(lambda x, y: tsum(cols(concat_cols(x, y), 1, 4)), a, b)


def test_take_rows_accumulates_duplicates():
    a = ad.parameter(np.arange(6.0).reshape(3, 2))
    picked = ad.take_rows(a, [0, 0, 2])
    root = tsum(picked)
    ad.backward(root)
    assert np.array_equal(a.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("rows,picks", [(16, 32), (3, 40), (1, 7), (5, 0)])
def test_take_rows_grad_equals_the_add_at_scatter(rows, picks):
    # Duplicate-heavy indices: each input row is picked about picks / rows
    # times, and some rows not at all.
    rng = np.random.default_rng(rows * 100 + picks)
    idx = rng.integers(0, max(1, rows // 2 + 1), size=picks)
    a = ad.parameter(rng.normal(size=(rows, 6)))
    g = rng.normal(size=(picks, 6))
    (_, got), = ad.take_rows(a, idx)._vjp(g)
    want = add_at_take_rows_grad(a.shape, idx, g)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(np.abs(want), 1.0))


def test_take_rows_rejects_negative_indices():
    with pytest.raises(ParameterError, match="non-negative"):
        ad.take_rows(ad.parameter(np.ones((3, 2))), [0, -1])


def test_unit_rows_names_a_row_whose_squared_norm_overflows():
    # 1e200 squared overflows: the row is finite but its norm is inf, and
    # dividing by it would return a zero row instead of a unit row.
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalDegeneracyError, match=r"non-finite-norm.*row 1"):
            ad.unit_rows(np.array([[1.0, 0.0], [1e200, 1.0]]))
    for bad, row in (([[1.0, np.nan]], 0), ([[1.0, 0.0], [0.0, -np.inf]], 1)):
        with pytest.raises(NumericalDegeneracyError, match=f"row {row}"):
            ad.unit_rows(np.array(bad))
    with pytest.raises(NumericalDegeneracyError, match=r"zero-length.*row 2"):
        ad.unit_rows(np.array([[1.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
    out, norms = ad.unit_rows(np.array([[1e150, 1.0], [3.0, 4.0]]))
    assert np.allclose(out, [[1.0, 1e-150], [0.6, 0.8]]) and norms[1, 0] == 5.0


def test_softmax_rows_matches_oracle_and_grads():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 5)) * 3.0
    s = softmax_rows(ad.constant(a)).value
    e = np.exp(a - a.max(axis=1, keepdims=True))
    assert np.allclose(s, e / e.sum(axis=1, keepdims=True), atol=1e-12)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
    check_scalar_fn(lambda x: tsum(square(softmax_rows(x))), a)
    # shift invariance: adding a constant per row changes nothing
    shifted = softmax_rows(ad.constant(a + 7.5)).value
    assert np.allclose(s, shifted, atol=1e-12)


def test_l2normalize_rows_grads_and_degeneracy():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 4)) + 0.1
    out = l2normalize_rows(ad.constant(a)).value
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    check_scalar_fn(lambda x: tsum(square(l2normalize_rows(x))), a)
    with pytest.raises(NumericalDegeneracyError):
        l2normalize_rows(ad.constant(np.zeros((2, 3))))


def test_layer_norm_rows_oracle_and_grads():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5))
    gain = rng.normal(size=5) + 1.0
    bias = rng.normal(size=5)
    out = layer_norm_rows(ad.constant(x), ad.constant(gain), ad.constant(bias)).value
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    expect = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
    assert np.allclose(out, expect, atol=1e-12)
    check_scalar_fn(
        lambda a, g, b: tsum(square(layer_norm_rows(a, g, b))), x, gain, bias
    )


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(6, 4)) * 2.0
    y = rng.integers(0, 4, size=6)
    val = cross_entropy_mean(ad.constant(logits), y).value
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert np.allclose(val, -logp[np.arange(6), y].mean(), atol=1e-12)
    check_scalar_fn(lambda x: cross_entropy_mean(x, y), logits)
    with pytest.raises(ParameterError):
        cross_entropy_mean(ad.constant(logits), np.array([0, 1, 2, 3, 4, 9]))


def test_cosine_rows_grads():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3))
    cos = cosine_rows(ad.constant(a), ad.constant(b)).value
    expect = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    assert np.allclose(cos, expect, atol=1e-12)
    check_scalar_fn(lambda x, y: tsum(cosine_rows(x, y)), a, b)


def test_mlp_rows_gradients():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 3))
    w1 = rng.normal(size=(3, 4))
    b1 = rng.normal(size=4)
    w2 = rng.normal(size=(4, 2))
    b2 = rng.normal(size=2)
    check_scalar_fn(
        lambda a, c, d, e, f: tsum(square(mlp_rows(a, c, d, e, f))),
        x, w1, b1, w2, b2,
    )


def test_constant_results_collapse():
    # ops on constants produce constants: no gradient path can exist
    c = ad.constant(np.ones((2, 2)))
    out = matmul(tanh(c), c)
    assert not out.requires_grad
    p = ad.parameter(np.ones((2, 2)))
    mixed = matmul(p, c)
    assert mixed.requires_grad


def test_constants_never_receive_gradients():
    c = ad.constant(np.ones((2, 3)))
    p = ad.parameter(np.full((2, 3), 2.0))
    root = tsum(mul(p, c))
    ad.backward(root)
    assert c.grad is None
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    p = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ParameterError):
        ad.backward(square(p))


def test_grad_accumulates_across_shared_subgraphs():
    p = ad.parameter(np.array([3.0]))
    sq = square(p)
    root = tsum(add(sq, sq))
    ad.backward(root)
    assert np.allclose(p.grad, [12.0])


def test_zero_grads_resets():
    p = ad.parameter(np.array([1.0, 1.0]))
    ad.backward(tsum(square(p)))
    assert p.grad is not None
    zero_grads([p])
    assert p.grad is None


SRC = Path(ad.__file__).parent

# Public functions that no src module calls, each with the file that does.
CALLED_OUTSIDE_SRC = {
    "read_bank": "demos/03_bank_and_refinement.py",
    "granule_source_accuracy": "demos/06_base_to_novel.py",
    "class_mode_patterns": "demos/01_latent_cache.py",
    "align_grid": "bench/workloads.py",  # CacheScan.check
}

# Every src module that defines a public function, with one it must define.
SURFACE_ANCHORS = [("autodiff", "take_rows"), ("bands", "factorize"), ("bank", "read_block"),
                   ("cli", "main"), ("config", "apply_settings"), ("diagnostics", "diagnose"),
                   ("evaluate", "predict"), ("granules", "fuse_rows"), ("losses", "loss_sem"),
                   ("refine", "refined_text_graph"), ("teacher", "read_cache"),
                   ("trainer", "fit")]


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _public_functions(module) -> set:
    return {stmt.name for stmt in _tree(module).body
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")}


def _used_names(module) -> set:
    """The names of `module` that src code refers to outside their own
    bodies: what other modules import from it or read off it, and what the
    module's own top-level statements name, a function's own name in its
    body excepted. The package's re-exports do not count."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == module:
            for stmt in tree.body:
                own = getattr(stmt, "name", None)
                used.update(node.id for node in ast.walk(stmt)
                            if isinstance(node, ast.Name) and node.id != own)
            continue
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == module:
                    used.update(a.name for a in node.names)
                elif node.module is None:
                    aliases.update(a.asname or a.name for a in node.names
                                   if a.name == module)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add(node.attr)
    return used


@pytest.mark.parametrize("module,anchor", SURFACE_ANCHORS)
def test_module_defines_only_what_the_program_calls(module, anchor):
    """Each public function of the module is used by src code outside its
    own body, or `CALLED_OUTSIDE_SRC` names the demo or benchmark file that
    calls it: an op or wrapper only the tests use belongs in `reference_ops`."""
    defined = _public_functions(module)
    unused = defined - _used_names(module) - set(CALLED_OUTSIDE_SRC)
    assert anchor in defined
    assert not unused, f"defined in {module} but unused in src: {sorted(unused)}"


def test_the_surface_check_covers_every_module_and_its_allowlist_holds():
    checked = {module for module, _ in SURFACE_ANCHORS}
    for path in SRC.glob("*.py"):
        if path.stem not in checked:  # __init__, __main__ and errors
            assert not _public_functions(path.stem), path.name
    root = SRC.parents[1]
    for name, caller in CALLED_OUTSIDE_SRC.items():
        assert re.search(rf"\b{name}\(", (root / caller).read_text(encoding="utf-8")), name
        home = [module for module in checked if name in _public_functions(module)]
        assert len(home) == 1 and name not in _used_names(home[0]), f"stale entry {name}"


def test_deep_chain_does_not_recurse():
    # iterative traversal must survive graphs deeper than the recursion limit
    p = ad.parameter(np.array([0.5]))
    node = p
    for _ in range(5000):
        node = add(node, 0.0)
    ad.backward(tsum(node))
    assert np.allclose(p.grad, [1.0])


# ---------------------------------------------------------------------------
# The fused composites against the primitive chains they replaced. The chains
# live on here only, as references. The softmax, row-L2 and cosine cases check
# the one-node references that `chain_retrieve_rows` and `chain_loss_sem` are
# built from against their own primitive chains.

FUSED_RTOL = 1e-12


def chain_affine(x, w, b):
    return add(matmul(x, w), b)


def chain_softmax_rows(x):
    x = ad.lift(x)
    shift = ad.constant(x.value.max(axis=1, keepdims=True))
    e = exp(sub(x, shift))
    return div(e, tsum(e, axis=1, keepdims=True))


def chain_l2normalize_rows(x):
    x = ad.lift(x)
    return div(x, sqrt(tsum(square(x), axis=1, keepdims=True)))


def chain_layer_norm_rows(x, gain, bias, eps=1e-5):
    x = ad.lift(x)
    centered = sub(x, tmean(x, axis=1, keepdims=True))
    var = tmean(square(centered), axis=1, keepdims=True)
    normed = div(centered, sqrt(add(var, eps)))
    return add(mul(normed, gain), bias)


def chain_mlp_rows(x, w1, b1, w2, b2):
    hidden = tanh(chain_affine(ad.lift(x), w1, b1))
    return chain_affine(hidden, w2, b2)


def chain_cross_entropy_mean(logits, labels, weights=None):
    """The mean of the per-row cross-entropies, or with (k, n) `weights` their
    k weighted sums."""
    logits = ad.lift(logits)
    labels = np.asarray(labels, dtype=np.intp)
    n, c = logits.value.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = tsum(mul(logits, ad.constant(onehot)), axis=1, keepdims=True)
    shift = ad.constant(logits.value.max(axis=1, keepdims=True))
    lse = add(shift, log(tsum(exp(sub(logits, shift)), axis=1, keepdims=True)))
    losses = sub(lse, picked)
    if weights is None:
        return tmean(losses)
    return tsum(matmul(ad.constant(weights), losses), axis=1)


def chain_cosine_rows(a, b):
    a, b = ad.lift(a), ad.lift(b)
    num = tsum(mul(a, b), axis=1)
    na = sqrt(tsum(square(a), axis=1))
    nb = sqrt(tsum(square(b), axis=1))
    return div(num, mul(na, nb))


def chain_logit_cross_entropy(visual, rows, labels, scale, weights=None):
    logits = mul(matmul(visual, transpose(rows)), scale)
    return chain_cross_entropy_mean(logits, labels, weights)


def chain_weighted_sum(first, terms):
    total = first
    for term, weight in terms:
        part = mul(term, weight)
        total = add(total, tsum(part) if np.ndim(weight) else part)
    return total


def chain_head_graph(stats, w1, b1, w2, b2):
    return chain_l2normalize_rows(chain_mlp_rows(stats, w1, b1, w2, b2))


def chain_fuse_rows(anchors, granules, w1, b1, w2, b2, ln_gain, ln_bias):
    anchors = ad.lift(anchors)
    residual = chain_mlp_rows(concat_cols(anchors, granules), w1, b1, w2, b2)
    return chain_layer_norm_rows(add(anchors, residual), ln_gain, ln_bias)


def chain_film_rows(codes, visual, w1, b1, w2, b2):
    visual = ad.lift(visual)
    dim = visual.value.shape[1]
    gb = chain_mlp_rows(codes, w1, b1, w2, b2)
    gamma, beta = cols(gb, 0, dim), cols(gb, dim, 2 * dim)
    return chain_l2normalize_rows(add(mul(add(tanh(gamma), 1.0), visual), beta))


def assert_matches(got, want):
    """Max-norm error within FUSED_RTOL of the reference's max magnitude."""
    assert got.shape == want.shape
    err = np.max(np.abs(got - want))
    assert err <= FUSED_RTOL * np.max(np.abs(want)), err


def value_and_vjp(op, arrays):
    """The op's value and the gradient of <op(arrays), c> for a random c."""
    params = [ad.parameter(a) for a in arrays]
    out = op(*params)
    c = np.random.default_rng(0).normal(size=out.shape)
    ad.backward(tsum(mul(out, ad.constant(c))))
    return out.value, [p.grad for p in params]


def mlp_arrays(rng, fan_in, hidden, out):
    return [rng.normal(size=(fan_in, hidden)), rng.normal(size=hidden),
            rng.normal(size=(hidden, out)), rng.normal(size=out)]


def fused_cases():
    """(id, fused op, chain, arrays): random shapes, one-row batches,
    broadcast gain/bias, duplicate labels and constant data inputs."""
    rng = np.random.default_rng(11)
    for n, d in [(1, 1), (1, 5), (2, 3), (7, 4), (16, 16), (5, 33)]:
        k, h = (int(v) for v in rng.integers(1, 9, size=2))
        x = rng.normal(size=(n, d)) * 2.0
        tag = f"{n}x{d}"
        for bias_shape in [(k,), (1, k)]:
            yield (f"affine-{tag}-bias{bias_shape}", affine, chain_affine,
                   [x, rng.normal(size=(d, k)), rng.normal(size=bias_shape)])
        yield f"softmax-{tag}", softmax_rows, chain_softmax_rows, [5.0 * x]
        yield f"l2normalize-{tag}", l2normalize_rows, chain_l2normalize_rows, [x + 0.1]
        yield (f"cosine-{tag}", cosine_rows, chain_cosine_rows,
               [x + 0.1, rng.normal(size=(n, d))])
        yield (f"mlp-{tag}", mlp_rows, chain_mlp_rows,
               [x, rng.normal(size=(d, h)), rng.normal(size=h),
                rng.normal(size=(h, k)), rng.normal(size=k)])
        if d > 1:
            for gain_shape, bias_shape in [((d,), (d,)), ((1, d), (d,)),
                                           ((d,), (n, d)), ((), (1, d))]:
                yield (f"layer_norm-{tag}-gain{gain_shape}-bias{bias_shape}",
                       layer_norm_rows, chain_layer_norm_rows,
                       [x, rng.normal(size=gain_shape) + 1.0, rng.normal(size=bias_shape)])
        # n labels over d + 1 classes: any batch of more than d + 1 rows repeats one
        labels = rng.integers(0, d + 1, size=n)
        yield (f"cross_entropy-{tag}",
               lambda a, y=labels: cross_entropy_mean(a, y),
               lambda a, y=labels: chain_cross_entropy_mean(a, y),
               [3.0 * rng.normal(size=(n, d + 1))])
    same = np.zeros(6, dtype=np.intp)
    yield ("cross_entropy-one-label",
           lambda a: cross_entropy_mean(a, same),
           lambda a: chain_cross_entropy_mean(a, same),
           [rng.normal(size=(6, 3))])
    yield from model_cases(np.random.default_rng(12))
    yield from retrieval_and_sem_cases(np.random.default_rng(14))


def model_cases(rng):
    """The model's one-node composites. A "-const" case holds the data rows
    (statistics, anchors and granules, visual rows) as constants, as
    training does."""
    from bandprompt.bands import head_graph
    from bandprompt.granules import film_rows, fuse_rows

    for n, d in [(1, 3), (1, 5), (3, 4), (6, 5), (16, 8)]:
        tag = f"{n}x{d}"
        h = int(rng.integers(1, 9))
        c = d + 1  # more than d + 1 rows repeat a label
        labels = rng.integers(0, c, size=n)
        visual, rows = rng.normal(size=(n, d)), rng.normal(size=(c, d))
        scale = float(rng.uniform(1.0, 20.0))
        yield (f"logit_ce-{tag}",
               lambda v, r, y=labels, s=scale: ad.logit_cross_entropy(v, r, y, s)[0],
               lambda v, r, y=labels, s=scale: chain_logit_cross_entropy(v, r, y, s),
               [visual, rows])
        yield (f"logit_ce-{tag}-const",
               lambda r, v=visual, y=labels, s=scale:
                   ad.logit_cross_entropy(ad.constant(v), r, y, s)[0],
               lambda r, v=visual, y=labels, s=scale:
                   chain_logit_cross_entropy(ad.constant(v), r, y, s),
               [rows])

        stats = np.abs(rng.normal(size=(n, d))) + 0.1
        head = mlp_arrays(rng, d, h, d)
        yield f"head-{tag}", head_graph, chain_head_graph, [stats, *head]
        yield (f"head-{tag}-const",
               lambda *p, x=stats: head_graph(ad.constant(x), *p),
               lambda *p, x=stats: chain_head_graph(ad.constant(x), *p), head)

        anchors, granules = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        fuse = mlp_arrays(rng, 2 * d, h, d) + [rng.normal(size=d) + 1.0, rng.normal(size=d)]
        yield f"fuse-{tag}", fuse_rows, chain_fuse_rows, [anchors, granules, *fuse]
        yield (f"fuse-{tag}-const",
               lambda *p, a=anchors, g=granules: fuse_rows(ad.constant(a), ad.constant(g), *p),
               lambda *p, a=anchors, g=granules:
                   chain_fuse_rows(ad.constant(a), ad.constant(g), *p),
               fuse)

        codes = rng.normal(size=(n, d))
        film = mlp_arrays(rng, d, h, 2 * d)
        yield f"film-{tag}", film_rows, chain_film_rows, [codes, visual, *film]
        yield (f"film-{tag}-const",
               lambda codes, *p, v=visual: film_rows(codes, ad.constant(v), *p),
               lambda codes, *p, v=visual: chain_film_rows(codes, ad.constant(v), *p),
               [codes, *film])

        # (k, n) weights: two blocks as the stacked granule pass uses, and a
        # dense pair of mixed signs
        for kind, weights in [("blocks", np.repeat(np.eye(2), n, axis=1) / n),
                              ("dense", np.linspace(-1.0, 2.0, 2 * n).reshape(2, n))]:
            yield (f"logit_ce-{tag}-{kind}-weights",
                   lambda v, r, y=labels, s=scale, w=weights:
                       ad.logit_cross_entropy(v, r, np.tile(y, w.shape[1] // len(y)), s, w)[0],
                   lambda v, r, y=labels, s=scale, w=weights:
                       chain_logit_cross_entropy(v, r, np.tile(y, w.shape[1] // len(y)), s, w),
                   [np.tile(visual, (weights.shape[1] // n, 1)), rows])

    same = np.zeros(6, dtype=np.intp)
    yield ("logit_ce-one-label",
           lambda v, r: ad.logit_cross_entropy(v, r, same, 3.0)[0],
           lambda v, r: chain_logit_cross_entropy(v, r, same, 3.0),
           [rng.normal(size=(6, 4)), rng.normal(size=(3, 4))])
    terms = rng.normal(size=4)
    weights = [0.1, 2.5, 0.0]
    for k in (1, 2, 3):
        yield (f"weighted_sum-{k}",
               lambda first, *t, w=weights: ad.weighted_sum(first, zip(t, w)),
               lambda first, *t, w=weights: chain_weighted_sum(first, zip(t, w)),
               [np.asarray(v) for v in terms[: k + 1]])
    yield ("weighted_sum-vector",
           lambda a, b, t: ad.weighted_sum(a, [(b, 0.4), (t, [0.1, -2.0])]),
           lambda a, b, t: chain_weighted_sum(a, [(b, 0.4), (t, [0.1, -2.0])]),
           [np.asarray(terms[0]), np.asarray(terms[1]), terms[2:4].copy()])
    yield ("weighted_sum-const",
           lambda a, b, t=terms[3]: ad.weighted_sum(a, [(ad.constant(t), 0.3), (b, 0.7)]),
           lambda a, b, t=terms[3]: chain_weighted_sum(a, [(ad.constant(t), 0.3), (b, 0.7)]),
           [np.asarray(terms[0]), np.asarray(terms[1])])


def retrieval_and_sem_cases(rng):
    """`bank.retrieve_rows` (its contexts) over frozen unit entries, and
    `losses.loss_sem` over pinned pseudo-labels. The "-const" case holds the
    raw rows as a constant."""
    from bandprompt.bank import retrieve_rows
    from bandprompt.losses import loss_sem

    for n, d in [(1, 1), (1, 3), (3, 4), (6, 5), (16, 8)]:
        tag = f"{n}x{d}"
        m, c = (int(v) for v in rng.integers(1, 9, size=2))
        entries = rng.normal(size=(m, d))
        entries /= np.linalg.norm(entries, axis=1, keepdims=True)
        temperature = float(rng.uniform(0.05, 1.0))
        yield (f"retrieve-{tag}",
               lambda q, e=entries, t=temperature: retrieve_rows(e, q, t)[1],
               lambda q, e=entries, t=temperature: chain_retrieve_rows(e, q, t)[1],
               [rng.normal(size=(n, d))])
        logits = rng.normal(size=(n, c))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        raw, t_low = rng.normal(size=(c, d)) + 0.1, rng.normal(size=(n, d)) + 0.1
        yield (f"sem-{tag}",
               lambda r, lo, p=probs: loss_sem(p, r, lo),
               lambda r, lo, p=probs: chain_loss_sem(p, r, lo),
               [raw, t_low])
        yield (f"sem-{tag}-const",
               lambda lo, p=probs, r=raw: loss_sem(p, ad.constant(r), lo),
               lambda lo, p=probs, r=raw: chain_loss_sem(p, ad.constant(r), lo),
               [t_low])


FUSED_CASES = list(fused_cases())


@pytest.mark.parametrize("fused,chain,arrays", [c[1:] for c in FUSED_CASES],
                         ids=[c[0] for c in FUSED_CASES])
def test_fused_op_matches_its_primitive_chain(fused, chain, arrays):
    value, grads = value_and_vjp(fused, arrays)
    want_value, want_grads = value_and_vjp(chain, arrays)
    assert_matches(value, want_value)
    for got, want in zip(grads, want_grads):
        assert_matches(got, want)


def test_fused_vjps_skip_constant_inputs():
    """A fused node's VJP hands out gradients for its live parents only, so
    none is computed for a constant input such as band statistics, visual
    rows or bank entries."""
    from bandprompt.bands import head_graph
    from bandprompt.bank import retrieve_rows
    from bandprompt.granules import film_rows, fuse_rows
    from bandprompt.losses import loss_sem

    rng = np.random.default_rng(13)
    n, d, h = 4, 3, 5

    def live(*shape):
        return ad.parameter(rng.normal(size=shape))

    def const(*shape):
        return ad.constant(rng.normal(size=shape))

    def mlp(fan_in, out):
        return live(fan_in, h), live(h), live(h, out), live(out)

    nodes = [
        head_graph(const(n, d), *mlp(d, d)),
        fuse_rows(const(n, d), const(n, d), *mlp(2 * d, d), live(d), live(d)),
        fuse_rows(const(n, d), live(n, d), *mlp(2 * d, d), live(d), live(d)),
        film_rows(live(n, d), const(n, d), *mlp(d, 2 * d)),
        ad.logit_cross_entropy(const(n, d), live(2, d), [0, 1, 1, 0], 10.0)[0],
        ad.logit_cross_entropy(live(n, d), const(2, d), [0, 1, 1, 0], 10.0)[0],
        ad.weighted_sum(const(), [(live(), 0.1), (const(), 0.2)]),
        retrieve_rows(rng.normal(size=(5, d)), live(n, d), 0.5)[1],
        loss_sem(np.full((n, 2), 0.5), const(2, d), live(n, d)),
        loss_sem(np.full((n, 2), 0.5), live(2, d), const(n, d)),
    ]
    for out in nodes:
        handed = [id(p) for p, _ in out._vjp(np.ones_like(out.value))]
        assert sorted(handed) == sorted(id(p) for p in out._parents if p.requires_grad)


def test_training_graph_matches_the_chains(monkeypatch):
    """The whole objective and every parameter gradient, fused against chains.

    Every composite a training step calls is swapped for its chain where the
    step looks it up; the cls term and the stacked granule term, whose (2, n)
    block weights keep one mean per term, both go through the cross-entropy
    chain. `agg.ln_bias` is compared in absolute terms: the bias
    is shared by every class row, so it shifts all logits of the one term
    that sees the refined rows equally, and its true gradient is 0. Both
    sides read rounding noise.
    """
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
        # Copies: every `p.grad` is a view of the optimizer's one gradient
        # buffer, which the next backward pass overwrites.
        return total, {k: p.grad.copy() for k, p in state.params.items()}

    fused_total, fused = objective_and_grads()
    ce_weights = []

    def chain_ce(visual, rows, labels, scale, weights=None):
        # The chain's loss, with the posteriors the fused node returns beside
        # it, computed apart by the reference softmax.
        ce_weights.append(None if weights is None else weights.shape)
        probs = pseudo_labels(ad.lift(visual).value, ad.lift(rows).value, scale)
        return chain_logit_cross_entropy(visual, rows, labels, scale, weights), probs

    for owner, name, chain in [
        (trainer, "head_graph", chain_head_graph),
        (trainer, "fuse_rows", chain_fuse_rows),
        (refine, "fuse_rows", chain_fuse_rows),
        (trainer, "film_rows", chain_film_rows),
        (ad, "logit_cross_entropy", chain_ce),
        (ad, "weighted_sum", chain_weighted_sum),
        (refine, "retrieve_rows", chain_retrieve_rows),
        (trainer, "loss_sem", chain_loss_sem),
    ]:
        monkeypatch.setattr(owner, name, chain)
    chain_total, chained = objective_and_grads()

    assert ce_weights == [None, (2, 2 * len(idx))]  # cls, then both granule terms
    assert len(tape_nodes(chain_total)) > 3 * len(tape_nodes(fused_total))
    assert_matches(fused_total.value, chain_total.value)
    for name, want in chained.items():
        if name == "agg.ln_bias":
            assert np.max(np.abs(want)) <= FUSED_RTOL
            assert np.max(np.abs(fused[name] - want)) <= FUSED_RTOL
        else:
            assert_matches(fused[name], want)


# The granule terms run as one stacked pass; `two_branch_forward_batch` is the
# two-branch step it replaced.

GRANULE_TERMS = {"gf": dict(lambda_gcf=0.0), "gcf": dict(lambda_gf=0.0), "both": {}}


@pytest.mark.parametrize("batch", ["full", "one", "short-last"])
@pytest.mark.parametrize("anchor", ["raw_text_by_label", "refined_text_by_label"])
@pytest.mark.parametrize("terms", list(GRANULE_TERMS))
def test_stacked_granule_pass_matches_the_two_branch_reference(terms, anchor, batch):
    """granule_f, granule_cf, the total and all 25 parameter gradients. The
    short last batch is the 5 left over from 32 samples at batch size 9.
    `agg.ln_bias` is compared in absolute terms where its true gradient is 0
    (see `test_training_graph_matches_the_chains`)."""
    from bandprompt import trainer
    from bandprompt.teacher import SyntheticSpec, generate_dataset

    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), n_per_class=8)
    weights = {**dict(lambda_gf=0.3, lambda_gcf=0.7), **GRANULE_TERMS[terms]}
    cfg = trainer.TrainConfig(embed_dim=8, bank_size=6, seed=0, anchor=anchor, **weights)
    state, feats = trainer.init_state(cache, cfg)
    trainer.fill_bank(state, feats)
    order = trainer._stratified_order(feats.labels, np.random.default_rng(1))
    warm = order[:16]
    for _ in range(3):  # zero-initialized final layers start to carry signal
        trainer.train_step(state, feats, warm, cfg, np.random.default_rng(2).permutation(16))
    idx = {"full": order[:16], "one": order[:1], "short-last": order[27:]}[batch]
    pi = np.random.default_rng(3).permutation(len(idx))

    def run(forward):
        total, granule = forward(state.params, feats, idx, state.bank, cfg, pi)
        state.optimizer.zero_grad()
        ad.backward(total)
        return total.item(), granule, {k: p.grad.copy() for k, p in state.params.items()}

    def stacked(*args):
        total, parts = trainer.forward_batch(*args)
        return total, (parts.granule_f, parts.granule_cf)

    total, granule, grads = run(stacked)
    want_total, want_granule, want_grads = run(two_branch_forward_batch)
    assert [g is None for g in granule] == [terms == "gcf", terms == "gf"]
    assert [g is None for g in want_granule] == [g is None for g in granule]
    for got, want in zip([total, *granule], [want_total, *want_granule]):
        if want is not None:
            assert_matches(np.asarray(got), np.asarray(want))
    assert len(grads) == 25
    for name, want in want_grads.items():
        if name == "agg.ln_bias" and anchor == "raw_text_by_label":
            assert np.max(np.abs(want)) <= FUSED_RTOL
            assert np.max(np.abs(grads[name] - want)) <= FUSED_RTOL
        else:
            assert_matches(grads[name], want)


# ---------------------------------------------------------------------------
# `backward` runs the reachable VJPs newest-first by creation stamp. The
# two-phase post-order traversal it replaced lives on here as the reference.


def backward_post_order(root):
    """The reference: post-order DFS over the live subgraph, then VJPs in
    reverse post-order."""
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for parent, g in node._vjp(node.grad):
            if not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.array(g)
            else:
                parent.grad += g


def tape_nodes(root):
    """Every tensor reachable from `root`, constants included."""
    nodes = {id(root): root}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in nodes:
                nodes[id(p)] = p
                stack.append(p)
    return list(nodes.values())


def test_training_step_gradients_match_the_post_order_reference():
    """All 25 parameter gradients of a default-config step, newest-first
    against the post-order reference. `agg.ln_bias` has a true gradient of 0
    (see `test_training_graph_matches_the_chains`) and is compared in absolute
    terms."""
    from bandprompt import trainer
    from bandprompt.teacher import SyntheticSpec, generate_dataset

    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), n_per_class=8)
    cfg = trainer.TrainConfig(embed_dim=8, bank_size=6, seed=0)
    state, feats = trainer.init_state(cache, cfg)
    trainer.fill_bank(state, feats)
    idx = np.arange(0, 32, 2)
    pi = np.random.default_rng(0).permutation(len(idx))
    for _ in range(3):  # zero-initialized final layers start to carry signal
        trainer.train_step(state, feats, idx, cfg, pi)

    def grads(run_backward):
        total, _ = trainer.forward_batch(state.params, feats, idx, state.bank, cfg, pi)
        nodes = tape_nodes(total)
        for node in nodes:
            assert all(node._stamp > p._stamp for p in node._parents)
        # Every parameter is on the tape, so a gradient reaches each of them.
        assert {id(p) for p in state.params.values()} <= {id(n) for n in nodes}
        state.optimizer.zero_grad()
        run_backward(total)
        # Copies: the gradients are views of the optimizer's one buffer.
        return {k: p.grad.copy() for k, p in state.params.items()}

    got = grads(ad.backward)
    want = grads(backward_post_order)
    assert len(want) == 25 and all(g.any() for g in want.values())
    for name, g in want.items():
        if name == "agg.ln_bias":
            assert np.max(np.abs(got[name] - g)) <= FUSED_RTOL
        else:
            assert_matches(got[name], g)


@pytest.mark.parametrize("short_first", [False, True])
def test_diamond_runs_each_vjp_once(short_first):
    """s feeds a long branch (s -> u -> v) and a short one (s -> w); the
    root's parent order puts whichever branch was made later first."""
    p = ad.parameter(np.array([[0.3, -0.7]]))
    s = tanh(p)
    if short_first:
        w = mul(s, 3.0)
        v = square(add(s, 1.0))
        root = tsum(add(v, w))
    else:
        v = square(add(s, 1.0))
        w = mul(s, 3.0)
        root = tsum(add(w, v))
    calls = {}

    def counted(node):
        vjp = node._vjp

        def run(g):
            calls[id(node)] = calls.get(id(node), 0) + 1
            return vjp(g)

        return run

    owners = [n for n in tape_nodes(root) if n._vjp is not None]
    for node in owners:
        node._vjp = counted(node)
    ad.backward(root)
    assert len(owners) == 6
    assert sorted(calls) == sorted(id(n) for n in owners)
    assert all(c == 1 for c in calls.values())
    t = np.tanh(p.value)
    assert np.allclose(p.grad, (2.0 * (t + 1.0) + 3.0) * (1.0 - t * t), rtol=1e-14)
