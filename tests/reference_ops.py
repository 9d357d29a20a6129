"""Reference primitives for the tests.

The program's tape keeps only the ops its own code calls. The primitive ops
it no longer calls live on here, each one tape node, to spell out the chains
the fused composites are checked against. `test_autodiff` checks each of
them against finite differences. So do the per-tensor `zero_grads` and the
concatenating Adam step that the optimizer's flat buffers replaced.
"""

import numpy as np

import bandprompt.autodiff as ad
from bandprompt.errors import NumericalDegeneracyError, ParameterError


def unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = ad.lift(a), ad.lift(b)

    def vjp(g):
        return ((a, unbroadcast(g, a.value.shape)), (b, unbroadcast(g, b.value.shape)))

    return ad.node(a.value + b.value, (a, b), vjp)


def sub(a, b):
    a, b = ad.lift(a), ad.lift(b)

    def vjp(g):
        return ((a, unbroadcast(g, a.value.shape)), (b, unbroadcast(-g, b.value.shape)))

    return ad.node(a.value - b.value, (a, b), vjp)


def mul(a, b):
    a, b = ad.lift(a), ad.lift(b)

    def vjp(g):
        return (
            (a, unbroadcast(g * b.value, a.value.shape)),
            (b, unbroadcast(g * a.value, b.value.shape)),
        )

    return ad.node(a.value * b.value, (a, b), vjp)


def div(a, b):
    a, b = ad.lift(a), ad.lift(b)
    out = a.value / b.value

    def vjp(g):
        return (
            (a, unbroadcast(g / b.value, a.value.shape)),
            (b, unbroadcast(-g * out / b.value, b.value.shape)),
        )

    return ad.node(out, (a, b), vjp)


def matmul(a, b):
    a, b = ad.lift(a), ad.lift(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ParameterError("matmul expects 2-D operands")

    def vjp(g):
        return ((a, g @ b.value.T), (b, a.value.T @ g))

    return ad.node(a.value @ b.value, (a, b), vjp)


def transpose(a):
    a = ad.lift(a)
    return ad.node(a.value.T, (a,), lambda g: ((a, g.T),))


def tanh(a):
    a = ad.lift(a)
    out = np.tanh(a.value)
    return ad.node(out, (a,), lambda g: ((a, g * (1.0 - out * out)),))


def exp(a):
    a = ad.lift(a)
    out = np.exp(a.value)
    return ad.node(out, (a,), lambda g: ((a, g * out),))


def log(a):
    a = ad.lift(a)
    return ad.node(np.log(a.value), (a,), lambda g: ((a, g / a.value),))


def sqrt(a):
    a = ad.lift(a)
    out = np.sqrt(a.value)
    return ad.node(out, (a,), lambda g: ((a, g * 0.5 / out),))


def square(a):
    a = ad.lift(a)
    return ad.node(a.value * a.value, (a,), lambda g: ((a, g * 2.0 * a.value),))


def _spread(g, a, axis, keepdims):
    """An (axis-)reduced gradient broadcast back over `a`."""
    g = np.asarray(g)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, a.value.shape).copy()


def tsum(a, axis=None, keepdims=False):
    a = ad.lift(a)
    return ad.node(a.value.sum(axis=axis, keepdims=keepdims), (a,),
                   lambda g: ((a, _spread(g, a, axis, keepdims)),))


def tmean(a, axis=None, keepdims=False):
    """Mean over every entry, or over `axis`. The full mean is `sum() / size`,
    which is what `ndarray.mean` computes."""
    a = ad.lift(a)
    if axis is None:
        count = a.value.size
        out = a.value.sum() / count
    else:
        count = a.value.shape[axis]
        out = a.value.mean(axis=axis, keepdims=keepdims)
    return ad.node(out, (a,), lambda g: ((a, _spread(g / count, a, axis, keepdims)),))


def concat_cols(a, b):
    a, b = ad.lift(a), ad.lift(b)
    na = a.value.shape[1]
    return ad.node(np.concatenate([a.value, b.value], axis=1), (a, b),
                   lambda g: ((a, g[:, :na]), (b, g[:, na:])))


def cols(a, lo, hi):
    a = ad.lift(a)

    def vjp(g):
        full = np.zeros_like(a.value)
        full[:, lo:hi] = g
        return ((a, full),)

    return ad.node(a.value[:, lo:hi], (a,), vjp)


def affine(x, w, b):
    """x @ w + b as one node."""
    x, w, b = ad.lift(x), ad.lift(w), ad.lift(b)

    def vjp(g):
        return ((x, g @ w.value.T), (w, x.value.T @ g), (b, unbroadcast(g, b.value.shape)))

    return ad.node(x.value @ w.value + b.value, (x, w, b), vjp)


def softmax_rows(x):
    x = ad.lift(x)
    # Shifting by the row max keeps exp() in range; softmax is shift invariant.
    e = np.exp(x.value - x.value.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return ((x, out * (g - (g * out).sum(axis=1, keepdims=True))),)

    return ad.node(out, (x,), vjp)


def l2normalize_rows(x):
    x = ad.lift(x)
    out, norms = ad.unit_rows(x.value)
    return ad.node(out, (x,), lambda g: ((x, ad.unit_rows_vjp(g, out, norms)),))


def cosine_rows(a, b):
    """Row-wise cosine similarity; degenerate rows raise."""
    a, b = ad.lift(a), ad.lift(b)
    na = np.sqrt((a.value * a.value).sum(axis=1))
    nb = np.sqrt((b.value * b.value).sum(axis=1))
    if (na < ad.MIN_NORM).any() or (nb < ad.MIN_NORM).any():
        raise NumericalDegeneracyError("cosine of a zero-length vector")
    den = na * nb
    out = (a.value * b.value).sum(axis=1) / den

    def vjp(g):
        gd = (g / den)[:, None]
        gc = (g * out)[:, None]
        ga = gd * b.value - gc * a.value / (na * na)[:, None]
        gb = gd * a.value - gc * b.value / (nb * nb)[:, None]
        return ((a, unbroadcast(ga, a.value.shape)), (b, unbroadcast(gb, b.value.shape)))

    return ad.node(out, (a, b), vjp)


# The primitive chains `bank.retrieve_rows` and `losses.loss_sem` replaced.
# Each fused node runs the chain's numpy steps in the chain's order, so the
# two agree bitwise in value and gradient.


def chain_retrieve_rows(entries, queries, temperature):
    """Four nodes: scores, scaled scores, softmax weights, contexts."""
    scores = mul(matmul(ad.lift(queries), ad.constant(entries.T)), 1.0 / temperature)
    weights = softmax_rows(scores)
    return weights.value, matmul(weights, ad.constant(entries))


def chain_loss_sem(probs, raw_rows, t_low):
    """Five nodes: unit raw rows, expected text, cosine, `1 -`, mean."""
    t_exp = matmul(ad.constant(probs), l2normalize_rows(raw_rows))
    return tmean(sub(1.0, cosine_rows(t_exp, t_low)))


def zero_grads(params):
    """Drop each tensor's gradient: the per-tensor reset for tapes over loose
    parameters. An optimizer's parameters are reset with `Adam.zero_grad`
    instead, which keeps their gradient views."""
    for p in params:
        p.grad = None


def concatenating_adam_step(self):
    """`trainer.Adam.step` as it was before the parameters moved into flat
    buffers: concatenate every gradient (a missing one as zeros) and value,
    update the copies, and rebind each parameter's value to its span. Patched
    over the in-place step, it must train bitwise the same."""
    self.t += 1
    b1, b2 = self.BETA1, self.BETA2
    b1c = 1.0 - b1**self.t
    b2c = 1.0 - b2**self.t
    params = self.params.values()
    g = np.concatenate([p.grad.ravel() if p.grad is not None else np.zeros(p.value.size)
                        for p in params])
    self.m = b1 * self.m + (1.0 - b1) * g
    self.v = b2 * self.v + (1.0 - b2) * (g * g)
    m_hat = self.m / b1c
    v_hat = self.v / b2c
    flat = np.concatenate([p.value.ravel() for p in params])
    flat = flat - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
    start = 0
    for p in params:
        stop = start + p.value.size
        p.value = flat[start:stop].reshape(p.value.shape)
        start = stop


def per_record_dataset(spec, n_per_class):
    """`teacher.generate_dataset` as a loop over latents, as it was before the
    columnar cache: per instance, one `normal` draw of its coefficients, one
    of its noise cells (when `noise_std > 0`), and a float32 cast. Returns
    the (ids, labels, latents) it would have stored."""
    from bandprompt import teacher

    class_modes, inst_modes = teacher._class_and_instance_modes(spec)
    flat_class = teacher._stack_patterns(spec.grid, class_modes).reshape(len(class_modes), -1)
    flat_inst = teacher._stack_patterns(spec.grid, inst_modes).reshape(len(inst_modes), -1)
    k_class, k_inst = len(class_modes), len(inst_modes)
    rng = np.random.default_rng(spec.seed)
    class_coef = rng.normal(0.0, teacher.CLASS_AMPLITUDE / np.sqrt(k_class),
                            size=(spec.num_classes, k_class))
    ids, labels, latents = [], [], []
    for label in range(spec.num_classes):
        class_field = (class_coef[label] @ flat_class).reshape(spec.grid)
        for i in range(n_per_class):
            inst_coef = rng.normal(0.0, teacher.INSTANCE_AMPLITUDE / np.sqrt(k_inst), size=k_inst)
            data = class_field + (inst_coef @ flat_inst).reshape(spec.grid)
            if spec.noise_std > 0.0:
                data = data + rng.normal(0.0, spec.noise_std, size=spec.grid)
            ids.append(f"c{label:03d}_s{i:05d}")
            labels.append(label)
            latents.append(data.astype(np.float32))
    return ids, np.array(labels, dtype=np.int64), np.stack(latents)
