"""Finite-difference and structural checks for the reverse-mode tape."""

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.errors import NumericalDegeneracyError, ParameterError


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


def test_add_mul_broadcasting_grads():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    check_scalar_fn(lambda x, y: ad.tsum(ad.mul(ad.add(x, y), ad.add(x, 2.0))), a, b)


def test_matmul_transpose_grads():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check_scalar_fn(lambda x, y: ad.tsum(ad.matmul(x, y)), a, b)
    check_scalar_fn(lambda x, y: ad.tsum(ad.matmul(ad.transpose(y), ad.transpose(x))), a, b)


def test_unary_grads():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 5))
    pos = np.abs(a) + 0.5
    check_scalar_fn(lambda x: ad.tsum(ad.tanh(x)), a)
    check_scalar_fn(lambda x: ad.tsum(ad.exp(x)), a)
    check_scalar_fn(lambda x: ad.tsum(ad.log(x)), pos)
    check_scalar_fn(lambda x: ad.tsum(ad.sqrt(x)), pos)
    check_scalar_fn(lambda x: ad.tsum(ad.square(x)), a)
    check_scalar_fn(lambda x: ad.tmean(ad.div(1.0, x)), pos)


def test_reduction_axis_grads():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 3))
    check_scalar_fn(lambda x: ad.tsum(ad.square(ad.tsum(x, axis=1))), a)
    check_scalar_fn(lambda x: ad.tsum(ad.square(ad.tmean(x, axis=0, keepdims=True))), a)


def test_concat_cols_and_cols_grads():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 3))
    check_scalar_fn(lambda x, y: ad.tsum(ad.square(ad.concat_cols(x, y))), a, b)
    check_scalar_fn(lambda x, y: ad.tsum(ad.cols(ad.concat_cols(x, y), 1, 4)), a, b)


def test_take_rows_accumulates_duplicates():
    a = ad.parameter(np.arange(6.0).reshape(3, 2))
    picked = ad.take_rows(a, [0, 0, 2])
    root = ad.tsum(picked)
    ad.backward(root)
    assert np.array_equal(a.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_softmax_rows_matches_oracle_and_grads():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 5)) * 3.0
    s = ad.softmax_rows(ad.constant(a)).value
    e = np.exp(a - a.max(axis=1, keepdims=True))
    assert np.allclose(s, e / e.sum(axis=1, keepdims=True), atol=1e-12)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
    check_scalar_fn(lambda x: ad.tsum(ad.square(ad.softmax_rows(x))), a)
    # shift invariance: adding a constant per row changes nothing
    shifted = ad.softmax_rows(ad.constant(a + 7.5)).value
    assert np.allclose(s, shifted, atol=1e-12)


def test_l2normalize_rows_grads_and_degeneracy():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 4)) + 0.1
    out = ad.l2normalize_rows(ad.constant(a)).value
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    check_scalar_fn(lambda x: ad.tsum(ad.square(ad.l2normalize_rows(x))), a)
    with pytest.raises(NumericalDegeneracyError):
        ad.l2normalize_rows(ad.constant(np.zeros((2, 3))))


def test_layer_norm_rows_oracle_and_grads():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5))
    gain = rng.normal(size=5) + 1.0
    bias = rng.normal(size=5)
    out = ad.layer_norm_rows(ad.constant(x), ad.constant(gain), ad.constant(bias)).value
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    expect = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
    assert np.allclose(out, expect, atol=1e-12)
    check_scalar_fn(
        lambda a, g, b: ad.tsum(ad.square(ad.layer_norm_rows(a, g, b))), x, gain, bias
    )


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(6, 4)) * 2.0
    y = rng.integers(0, 4, size=6)
    val = ad.cross_entropy_mean(ad.constant(logits), y).value
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert np.allclose(val, -logp[np.arange(6), y].mean(), atol=1e-12)
    check_scalar_fn(lambda x: ad.cross_entropy_mean(x, y), logits)
    with pytest.raises(ParameterError):
        ad.cross_entropy_mean(ad.constant(logits), np.array([0, 1, 2, 3, 4, 9]))


def test_cosine_rows_grads():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3))
    cos = ad.cosine_rows(ad.constant(a), ad.constant(b)).value
    expect = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    assert np.allclose(cos, expect, atol=1e-12)
    check_scalar_fn(lambda x, y: ad.tsum(ad.cosine_rows(x, y)), a, b)


def test_mlp_rows_gradients():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 3))
    w1 = rng.normal(size=(3, 4))
    b1 = rng.normal(size=4)
    w2 = rng.normal(size=(4, 2))
    b2 = rng.normal(size=2)
    check_scalar_fn(
        lambda a, c, d, e, f: ad.tsum(ad.square(ad.mlp_rows(a, c, d, e, f))),
        x, w1, b1, w2, b2,
    )


def test_constant_results_collapse():
    # ops on constants produce constants: no gradient path can exist
    c = ad.constant(np.ones((2, 2)))
    out = ad.matmul(ad.tanh(c), c)
    assert not out.requires_grad
    p = ad.parameter(np.ones((2, 2)))
    mixed = ad.matmul(p, c)
    assert mixed.requires_grad


def test_constants_never_receive_gradients():
    c = ad.constant(np.ones((2, 3)))
    p = ad.parameter(np.full((2, 3), 2.0))
    root = ad.tsum(ad.mul(p, c))
    ad.backward(root)
    assert c.grad is None
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    p = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ParameterError):
        ad.backward(ad.square(p))


def test_grad_accumulates_across_shared_subgraphs():
    p = ad.parameter(np.array([3.0]))
    sq = ad.square(p)
    root = ad.tsum(ad.add(sq, sq))
    ad.backward(root)
    assert np.allclose(p.grad, [12.0])


def test_zero_grads_resets():
    p = ad.parameter(np.array([1.0, 1.0]))
    ad.backward(ad.tsum(ad.square(p)))
    assert p.grad is not None
    ad.zero_grads([p])
    assert p.grad is None


def test_deep_chain_does_not_recurse():
    # iterative traversal must survive graphs deeper than the recursion limit
    p = ad.parameter(np.array([0.5]))
    node = p
    for _ in range(5000):
        node = ad.add(node, 0.0)
    ad.backward(ad.tsum(node))
    assert np.allclose(p.grad, [1.0])


# ---------------------------------------------------------------------------
# The fused composites against the primitive chains they replaced. The chains
# live on here only, as references.

FUSED_RTOL = 1e-12


def chain_affine(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def chain_softmax_rows(x):
    x = ad.lift(x)
    shift = ad.constant(x.value.max(axis=1, keepdims=True))
    e = ad.exp(ad.sub(x, shift))
    return ad.div(e, ad.tsum(e, axis=1, keepdims=True))


def chain_l2normalize_rows(x):
    x = ad.lift(x)
    return ad.div(x, ad.sqrt(ad.tsum(ad.square(x), axis=1, keepdims=True)))


def chain_layer_norm_rows(x, gain, bias, eps=1e-5):
    x = ad.lift(x)
    centered = ad.sub(x, ad.tmean(x, axis=1, keepdims=True))
    var = ad.tmean(ad.square(centered), axis=1, keepdims=True)
    normed = ad.div(centered, ad.sqrt(ad.add(var, eps)))
    return ad.add(ad.mul(normed, gain), bias)


def chain_mlp_rows(x, w1, b1, w2, b2):
    hidden = ad.tanh(chain_affine(ad.lift(x), w1, b1))
    return chain_affine(hidden, w2, b2)


def chain_cross_entropy_mean(logits, labels):
    logits = ad.lift(logits)
    labels = np.asarray(labels, dtype=np.intp)
    n, c = logits.value.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = ad.tsum(ad.mul(logits, ad.constant(onehot)), axis=1, keepdims=True)
    shift = ad.constant(logits.value.max(axis=1, keepdims=True))
    lse = ad.add(shift, ad.log(ad.tsum(ad.exp(ad.sub(logits, shift)), axis=1, keepdims=True)))
    return ad.tmean(ad.sub(lse, picked))


def chain_cosine_rows(a, b):
    a, b = ad.lift(a), ad.lift(b)
    num = ad.tsum(ad.mul(a, b), axis=1)
    na = ad.sqrt(ad.tsum(ad.square(a), axis=1))
    nb = ad.sqrt(ad.tsum(ad.square(b), axis=1))
    return ad.div(num, ad.mul(na, nb))


CHAINS = {
    "affine": chain_affine,
    "softmax_rows": chain_softmax_rows,
    "l2normalize_rows": chain_l2normalize_rows,
    "layer_norm_rows": chain_layer_norm_rows,
    "mlp_rows": chain_mlp_rows,
    "cross_entropy_mean": chain_cross_entropy_mean,
    "cosine_rows": chain_cosine_rows,
}


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
    ad.backward(ad.tsum(ad.mul(out, ad.constant(c))))
    return out.value, [p.grad for p in params]


def fused_cases():
    """(id, fused op, chain, arrays): random shapes, one-row batches,
    broadcast gain/bias and duplicate labels."""
    rng = np.random.default_rng(11)
    for n, d in [(1, 1), (1, 5), (2, 3), (7, 4), (16, 16), (5, 33)]:
        k, h = (int(v) for v in rng.integers(1, 9, size=2))
        x = rng.normal(size=(n, d)) * 2.0
        tag = f"{n}x{d}"
        for bias_shape in [(k,), (1, k)]:
            yield (f"affine-{tag}-bias{bias_shape}", ad.affine, chain_affine,
                   [x, rng.normal(size=(d, k)), rng.normal(size=bias_shape)])
        yield f"softmax-{tag}", ad.softmax_rows, chain_softmax_rows, [5.0 * x]
        yield f"l2normalize-{tag}", ad.l2normalize_rows, chain_l2normalize_rows, [x + 0.1]
        yield (f"cosine-{tag}", ad.cosine_rows, chain_cosine_rows,
               [x + 0.1, rng.normal(size=(n, d))])
        yield (f"mlp-{tag}", ad.mlp_rows, chain_mlp_rows,
               [x, rng.normal(size=(d, h)), rng.normal(size=h),
                rng.normal(size=(h, k)), rng.normal(size=k)])
        if d > 1:
            for gain_shape, bias_shape in [((d,), (d,)), ((1, d), (d,)),
                                           ((d,), (n, d)), ((), (1, d))]:
                yield (f"layer_norm-{tag}-gain{gain_shape}-bias{bias_shape}",
                       ad.layer_norm_rows, chain_layer_norm_rows,
                       [x, rng.normal(size=gain_shape) + 1.0, rng.normal(size=bias_shape)])
        # n labels over d + 1 classes: any batch of more than d + 1 rows repeats one
        labels = rng.integers(0, d + 1, size=n)
        yield (f"cross_entropy-{tag}",
               lambda a, y=labels: ad.cross_entropy_mean(a, y),
               lambda a, y=labels: chain_cross_entropy_mean(a, y),
               [3.0 * rng.normal(size=(n, d + 1))])
    same = np.zeros(6, dtype=np.intp)
    yield ("cross_entropy-one-label",
           lambda a: ad.cross_entropy_mean(a, same),
           lambda a: chain_cross_entropy_mean(a, same),
           [rng.normal(size=(6, 3))])


FUSED_CASES = list(fused_cases())


@pytest.mark.parametrize("fused,chain,arrays", [c[1:] for c in FUSED_CASES],
                         ids=[c[0] for c in FUSED_CASES])
def test_fused_op_matches_its_primitive_chain(fused, chain, arrays):
    value, grads = value_and_vjp(fused, arrays)
    want_value, want_grads = value_and_vjp(chain, arrays)
    assert_matches(value, want_value)
    for got, want in zip(grads, want_grads):
        assert_matches(got, want)


def test_training_graph_matches_the_chains(monkeypatch):
    """The whole objective and every parameter gradient, fused against chains.

    `agg.ln_bias` is compared in absolute terms: the bias is shared by every
    class row, so it shifts all logits of the one term that sees the refined
    rows equally, and its true gradient is 0. Both sides read rounding noise.
    """
    from bandprompt import trainer
    from bandprompt.teacher import SyntheticSpec, generate_dataset

    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), n_per_class=8)
    cfg = trainer.TrainConfig(embed_dim=8, bank_size=6, seed=0)
    state = trainer.init_state(cache, cfg)
    feats = trainer.compute_features(state.encoder, cache.arrays(), cache.labels(), cfg.kernel)
    trainer.fill_bank(state, feats)
    idx = np.arange(0, 32, 2)
    pi = np.random.default_rng(0).permutation(len(idx))
    for _ in range(3):  # zero-initialized final layers start to carry signal
        trainer.train_step(state, feats, idx, cfg, pi)

    def objective_and_grads():
        total, _ = trainer.forward_batch(state.params, feats, idx, state.bank, cfg, pi)
        ad.zero_grads(state.params.values())
        ad.backward(total)
        return total.value, {k: p.grad for k, p in state.params.items()}

    fused_total, fused = objective_and_grads()
    for name, chain in CHAINS.items():
        monkeypatch.setattr(ad, name, chain)
    chain_total, chained = objective_and_grads()

    assert_matches(fused_total, chain_total)
    for name, want in chained.items():
        if name == "agg.ln_bias":
            assert np.max(np.abs(want)) <= FUSED_RTOL
            assert np.max(np.abs(fused[name] - want)) <= FUSED_RTOL
        else:
            assert_matches(fused[name], want)


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
    state = trainer.init_state(cache, cfg)
    feats = trainer.compute_features(state.encoder, cache.arrays(), cache.labels(), cfg.kernel)
    trainer.fill_bank(state, feats)
    idx = np.arange(0, 32, 2)
    pi = np.random.default_rng(0).permutation(len(idx))
    for _ in range(3):  # zero-initialized final layers start to carry signal
        trainer.train_step(state, feats, idx, cfg, pi)

    def grads(run_backward):
        total, _ = trainer.forward_batch(state.params, feats, idx, state.bank, cfg, pi)
        for node in tape_nodes(total):
            assert all(node._stamp > p._stamp for p in node._parents)
        ad.zero_grads(state.params.values())
        run_backward(total)
        return {k: p.grad for k, p in state.params.items()}

    got = grads(ad.backward)
    want = grads(backward_post_order)
    assert len(want) == 25 and all(g is not None for g in want.values())
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
    s = ad.tanh(p)
    if short_first:
        w = ad.mul(s, 3.0)
        v = ad.square(ad.add(s, 1.0))
        root = ad.tsum(ad.add(v, w))
    else:
        v = ad.square(ad.add(s, 1.0))
        w = ad.mul(s, 3.0)
        root = ad.tsum(ad.add(w, v))
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
