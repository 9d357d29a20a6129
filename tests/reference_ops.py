"""Reference primitives for the tests.

The program's tape keeps only the ops its own code calls. The primitive ops
it no longer calls live on here, each one tape node, to spell out the chains
the fused composites are checked against. `test_autodiff` checks each of
them against finite differences. So do the per-tensor `zero_grads` and the
concatenating Adam step that the optimizer's flat buffers replaced, the
two-branch granule step that the stacked pass replaced, and the other loops
that array code replaced, and the mask forms of the input guards that one or
two reductions replaced. The per-record `struct` cache codec is here too,
as the oracle of the codec's bytes and errors, and so is the whole-class
generator that the row-block one replaced, and the base-to-novel protocol
that trained `fit` on a copied subset of the cache (`relabelled`). The
passes that never call `backward` (`text_features`, `low_band_rows`, the
granule-source probe) are here as they ran on value-only copies of the
parameters.
`traced_peak` is the one memory probe of the tests.
"""

import struct
import tracemalloc

import numpy as np

import bandprompt.autodiff as ad
from bandprompt.errors import (
    CacheCorruptionError,
    CacheFormatError,
    NumericalDegeneracyError,
    ParameterError,
)


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes that tracemalloc saw allocated during the
    call). What was allocated before the call does not count."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`, as a fresh array: a VJP
    hands each parent a gradient of its own (`ad.node`)."""
    if np.shape(g) == shape:
        return np.array(g)
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
    return ad.node(a.value.T, (a,), lambda g: ((a, g.T.copy()),))


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
    """Mean over every entry, or over `axis`. The full mean is the program's
    sum kernel, a product with `ad.ONES`, over the size."""
    a = ad.lift(a)
    if axis is None:
        count = a.value.size
        out = a.value.ravel().dot(ad.ONES[count]) / count
    else:
        count = a.value.shape[axis]
        out = a.value.mean(axis=axis, keepdims=keepdims)
    return ad.node(out, (a,), lambda g: ((a, _spread(g / count, a, axis, keepdims)),))


def concat_cols(a, b):
    a, b = ad.lift(a), ad.lift(b)
    na = a.value.shape[1]
    return ad.node(np.concatenate([a.value, b.value], axis=1), (a, b),
                   lambda g: ((a, g[:, :na].copy()), (b, g[:, na:].copy())))


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
    """Row softmax; its row sums are the program's sum kernel."""
    x = ad.lift(x)
    ones = ad.ONES[x.value.shape[1]]
    # Shifting by the row max keeps exp() in range; softmax is shift invariant.
    e = np.exp(x.value - x.value.max(axis=1, keepdims=True))
    out = e / e.dot(ones)[:, None]

    def vjp(g):
        return ((x, out * (g - (g * out).dot(ones)[:, None])),)

    return ad.node(out, (x,), vjp)


def l2normalize_rows(x):
    x = ad.lift(x)
    out, norms = ad.unit_rows(x.value)
    return ad.node(out, (x,), lambda g: ((x, ad.unit_rows_vjp(g, out, norms)),))


def cosine_rows(a, b):
    """Row-wise cosine similarity; degenerate rows raise. Its row sums are the
    program's sum kernel."""
    a, b = ad.lift(a), ad.lift(b)
    ones = ad.ONES[a.value.shape[1]]
    na = np.sqrt((a.value * a.value).dot(ones))
    nb = np.sqrt((b.value * b.value).dot(ones))
    if (na < ad.MIN_NORM).any() or (nb < ad.MIN_NORM).any():
        raise NumericalDegeneracyError("cosine of a zero-length vector")
    den = na * nb
    out = (a.value * b.value).dot(ones) / den

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
    scores = mul(matmul(ad.lift(queries), ad.lift(entries.T)), 1.0 / temperature)
    weights = softmax_rows(scores)
    return weights.value, matmul(weights, ad.lift(entries))


def chain_loss_sem(probs, raw_rows, t_low):
    """Five nodes: unit raw rows, expected text, cosine, `1 -`, mean."""
    t_exp = matmul(ad.lift(probs), l2normalize_rows(raw_rows))
    return tmean(sub(1.0, cosine_rows(t_exp, t_low)))


def pseudo_labels(visual, text_rows, scale: float) -> np.ndarray:
    """Detached per-sample class posteriors, computed apart from the cls term:
    the second softmax that a training step took before `loss_cls` returned
    its own. It must equal the cls term's posteriors bitwise."""
    from bandprompt.losses import class_logits

    logits = class_logits(visual, text_rows, scale)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.dot(ad.ONES[e.shape[1]])[:, None]


def add_at_take_rows_grad(shape, idx, g):
    """The gradient `ad.take_rows` hands its input, as the `np.add.at` scatter
    it used before the one-hot product."""
    full = np.zeros(shape)
    np.add.at(full, np.asarray(idx, dtype=np.intp), g)
    return full


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


def _class_draw(spec):
    """The flattened class and instance mode patterns, the class coefficients
    drawn first from the spec's stream, that stream, and the scale of the
    instance coefficients."""
    from bandprompt import teacher

    class_modes, inst_modes = teacher._class_and_instance_modes(spec)
    flat_class = teacher._stack_patterns(spec.grid, class_modes).reshape(len(class_modes), -1)
    flat_inst = teacher._stack_patterns(spec.grid, inst_modes).reshape(len(inst_modes), -1)
    rng = np.random.default_rng(spec.seed)
    class_coef = rng.normal(0.0, teacher.CLASS_AMPLITUDE / np.sqrt(len(class_modes)),
                            size=(spec.num_classes, len(class_modes)))
    inst_scale = teacher.INSTANCE_AMPLITUDE / np.sqrt(len(inst_modes))
    return flat_class, flat_inst, class_coef, rng, inst_scale


def per_record_dataset(spec, n_per_class):
    """`teacher.generate_dataset` as a loop over latents, as it was before the
    columnar cache: per instance, one `normal` draw of its coefficients, one
    of its noise cells (when `noise_std > 0`), and a float32 cast. Returns
    the (ids, labels, latents) it would have stored."""
    flat_class, flat_inst, class_coef, rng, inst_scale = _class_draw(spec)
    k_inst = len(flat_inst)
    ids, labels, latents = [], [], []
    for label in range(spec.num_classes):
        class_field = (class_coef[label] @ flat_class).reshape(spec.grid)
        for i in range(n_per_class):
            inst_coef = rng.normal(0.0, inst_scale, size=k_inst)
            data = class_field + (inst_coef @ flat_inst).reshape(spec.grid)
            if spec.noise_std > 0.0:
                data = data + rng.normal(0.0, spec.noise_std, size=spec.grid)
            ids.append(f"c{label:03d}_s{i:05d}")
            labels.append(label)
            latents.append(data.astype(np.float32))
    return ids, np.array(labels, dtype=np.int64), np.stack(latents)


def per_class_dataset(spec, n_per_class):
    """`teacher.generate_dataset` as it was before it built a class in row
    blocks: one draw of a class's coefficients and noise cells for all its
    instances, and one product. Returns the (n, C, h, w) float32 latents."""
    flat_class, flat_inst, class_coef, rng, inst_scale = _class_draw(spec)
    k_inst = len(flat_inst)
    cells = flat_inst.shape[1] if spec.noise_std > 0.0 else 0
    block = np.empty((spec.num_classes, n_per_class, flat_inst.shape[1]), dtype=np.float32)
    for label in range(spec.num_classes):
        draws = rng.standard_normal((n_per_class, k_inst + cells))
        inst_coef = inst_scale * draws[:, :k_inst]
        data = class_coef[label] @ flat_class + inst_coef @ flat_inst
        if cells:
            data += spec.noise_std * draws[:, k_inst:]
        block[label] = data
    return block.reshape(-1, *spec.grid)


def struct_cache_bytes(ids, labels, block) -> bytes:
    """The v1 cache file of `ids`, `labels` and the (n, C, h, w) `block`, one
    `struct.pack` per record field."""
    parts = [b"SPLC", struct.pack("<II", 1, len(ids))]
    for sid, label, row in zip(ids, labels, np.asarray(block, dtype="<f4")):
        raw = sid.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw, struct.pack("<IIII", label, *row.shape),
                  row.tobytes()]
    return b"".join(parts)


def per_record_read_cache(path):
    """`teacher.read_cache` as a loop that parses one record at a time.
    Returns (ids, int64 labels, float32 block); raises as the reader does."""
    blob = open(path, "rb").read()
    if len(blob) < 12 or blob[:4] != b"SPLC":
        raise CacheFormatError(f"{path}: not a latent cache (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != 1:
        raise CacheFormatError(f"{path}: unsupported cache version {version}")
    (count,) = struct.unpack_from("<I", blob, 8)
    offset, ids, labels, rows, grid = 12, [], [], [], (0, 0, 0)
    for index in range(count):
        if offset + 2 > len(blob):
            raise CacheCorruptionError(f"{path}: truncated before id length", index)
        (id_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if offset + id_len + 16 > len(blob):
            raise CacheCorruptionError(f"{path}: truncated record header", index)
        try:
            sid = blob[offset:offset + id_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CacheCorruptionError(f"{path}: sample id is not UTF-8", index) from None
        offset += id_len
        label, cc, hh, ww = struct.unpack_from("<IIII", blob, offset)
        offset += 16
        if not sid:
            raise CacheCorruptionError(f"{path}: sample_id must be non-empty", index)
        if sid in ids:
            raise CacheCorruptionError(f"{path}: duplicate sample id {sid!r}", index)
        if min(cc, hh, ww) < 1:
            raise CacheCorruptionError(f"{path}: record has empty dims {(cc, hh, ww)}", index)
        grid = grid if index else (cc, hh, ww)
        if (cc, hh, ww) != grid:
            raise CacheCorruptionError(f"{path}: grid {(cc, hh, ww)} differs from record 0's {grid}", index)
        nbytes = cc * hh * ww * 4
        if offset + nbytes > len(blob):
            raise CacheCorruptionError(f"{path}: truncated latent payload", index)
        ids.append(sid)
        labels.append(label)
        rows.append(np.frombuffer(blob, "<f4", cc * hh * ww, offset).reshape(grid))
        offset += nbytes
    if offset != len(blob):
        raise CacheCorruptionError(f"{path}: {len(blob) - offset} trailing bytes after last record", count)
    for index, row in enumerate(rows):
        if not np.isfinite(row).all():
            raise CacheCorruptionError(f"{path}: latent {ids[index]!r} has non-finite values", index)
    block = np.stack(rows) if rows else np.empty((0, 0, 0, 0), np.float32)
    return ids, np.array(labels, dtype=np.int64), block


def popping_stratified_order(labels, rng):
    """`trainer._stratified_order` as a loop that pops one index at a time from
    per-class lists: one `rng.permutation` per class queue, then one per round.
    The array version must give the same order bitwise from the same stream."""
    classes = np.unique(labels)
    queues = {c: list(rng.permutation(np.flatnonzero(labels == c))) for c in classes}
    order = []
    remaining = len(labels)
    while remaining:
        for c in rng.permutation(classes):
            if queues[c]:
                order.append(queues[c].pop())
                remaining -= 1
    return np.asarray(order, dtype=np.intp)


def two_branch_forward_batch(params, feats, idx, bank, cfg, pi):
    """`trainer.forward_batch` as it was before the granule terms shared one
    stacked pass: the factual and the counterfactual branch each run their own
    `fuse_rows`, `film_rows` and mean cross-entropy (`loss_granule` was
    `loss_cls` against the raw rows), and the weighted total adds
    the built terms one at a time. Returns the total and the values of
    (granule_f, granule_cf), None where a term is not built."""
    from bandprompt.bands import head_graph
    from bandprompt.granules import check_permutation, film_rows, fuse_rows
    from bandprompt.losses import loss_cls, loss_sem
    from bandprompt.refine import refined_text_graph
    from bandprompt.trainer import group

    idx = np.asarray(idx, dtype=np.intp)
    y = feats.labels[idx]
    visual = ad.lift(feats.visual[idx])
    text_raw = params["text_raw"]
    text_pred = refined_text_graph(text_raw, bank, group(params, "agg"), cfg.eta)
    cls_term = loss_cls(visual, text_pred, y, cfg.logit_scale)[0]
    weighted = []
    if cfg.lambda_sem > 0:
        probs = pseudo_labels(visual.value, text_pred.value, cfg.logit_scale)
        t_low = head_graph(ad.lift(feats.phi_base[idx]), *group(params, "proj_low"))
        weighted.append((loss_sem(probs, text_raw, t_low), cfg.lambda_sem))
    gf_term = gcf_term = None
    if cfg.lambda_gf > 0 or cfg.lambda_gcf > 0:
        t_high = head_graph(ad.lift(feats.phi_detail[idx]), *group(params, "proj_high"))
        anchor_rows = text_pred if cfg.anchor == "refined_text_by_label" else text_raw
        anchors = ad.take_rows(anchor_rows, y)
        if cfg.lambda_gf > 0:
            codes = fuse_rows(anchors, t_high, *group(params, "fuse"))
            v_mod = film_rows(codes, visual, *group(params, "film"))
            gf_term = loss_cls(v_mod, text_raw, y, cfg.logit_scale)[0]
            weighted.append((gf_term, cfg.lambda_gf))
        if cfg.lambda_gcf > 0:
            pi = check_permutation(pi, len(idx))
            codes_cf = fuse_rows(anchors, ad.take_rows(t_high, pi), *group(params, "fuse"))
            v_cf = film_rows(codes_cf, visual, *group(params, "film"))
            gcf_term = loss_cls(v_cf, text_raw, y[pi], cfg.logit_scale)[0]
            weighted.append((gcf_term, cfg.lambda_gcf))
    total = ad.weighted_sum(cls_term, weighted) if weighted else cls_term
    return total, tuple(None if t is None else t.item() for t in (gf_term, gcf_term))


# ---------------------------------------------------------------------------
# the mask forms of the input guards; each returns whether its guard accepts


def mask_unit_rows_accepts(x) -> bool:
    """`autodiff.unit_rows`: every row norm finite and >= MIN_NORM."""
    norms = np.sqrt((x * x).sum(axis=1))
    return bool((np.isfinite(norms) & (norms >= ad.MIN_NORM)).all())


def mask_labels_accept(labels, num_classes: int) -> bool:
    """`autodiff.logit_cross_entropy`'s labels: every one in 0..num_classes-1."""
    labels = np.asarray(labels, dtype=np.intp)
    return not ((labels < 0).any() or (labels >= num_classes).any())


def mask_sem_rejects(probs, raw_rows, t_low):
    """Which guard of `losses.loss_sem` rejects its inputs: "probs" (not a
    distribution per row), "norms" (a zero-length cosine operand) or None.
    NaN passes both, as it fails every comparison."""
    probs, raw_rows, t_low = (np.asarray(a, dtype=np.float64) for a in (probs, raw_rows, t_low))
    if (probs < -1e-12).any() or (abs(probs.sum(axis=1) - 1.0) > 1e-9).any():
        return "probs"
    t_exp = probs @ (raw_rows / np.linalg.norm(raw_rows, axis=1, keepdims=True))
    na = np.sqrt((t_exp * t_exp).sum(axis=1))
    nb = np.sqrt((t_low * t_low).sum(axis=1))
    if (na < ad.MIN_NORM).any() or (nb < ad.MIN_NORM).any():
        return "norms"
    return None


def sorting_permutation_accepts(pi, n: int) -> bool:
    """`granules.check_permutation`: the sorted values are 0..n-1."""
    pi = np.asarray(pi, dtype=np.intp)
    return pi.shape == (n,) and np.array_equal(np.sort(pi), np.arange(n))


def mask_bank_rows_rejects(rows):
    """Which error `bank.absorb`'s row check raises, or None: a non-finite
    entry first, then a row norm more than 1e-5 from 1."""
    rows = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(rows).all():
        return NumericalDegeneracyError
    if (np.abs(np.linalg.norm(rows, axis=1) - 1.0) > 1e-5).any():
        return ParameterError
    return None


def row_by_row_absorb(bank, rows):
    """`bank.absorb` one row at a time, as it was before it took stacks: fill
    the next free slot, or EMA-update the nearest entry into a fresh row."""
    for vec in rows:
        if not bank.full:
            bank.entries[bank.fill_count] = vec
            bank.fill_count += 1
            continue
        slot = int(np.argmax(bank.entries @ vec))
        updated = (1.0 - bank.momentum) * bank.entries[slot] + bank.momentum * vec
        norm = float(np.linalg.norm(updated))
        if norm < ad.MIN_NORM:
            raise NumericalDegeneracyError(f"EMA update produced a zero-length entry at slot {slot}")
        bank.entries[slot] = updated / norm
    return bank


# ---------------------------------------------------------------------------
# the `np.add.reduce` forms of the sums that the program takes as products
# with `ad.ONES`: the array-level helpers and the composites with sums of
# their own, as they were before. `test_sums` holds each product form to its
# reduce form.


def reduce_mlp_vjp(g, x, hidden, w1, b1, w2, b2, need_x):
    """`ad.mlp_vjp` with `np.add.reduce` bias gradients."""
    grads = []
    if w2.requires_grad:
        grads.append((w2, hidden.T @ g))
    if b2.requires_grad:
        grads.append((b2, np.add.reduce(g, axis=0)))
    gx = None
    if need_x or w1.requires_grad or b1.requires_grad:
        gh = (g @ w2.value.T) * (1.0 - hidden * hidden)
        if w1.requires_grad:
            grads.append((w1, x.T @ gh))
        if b1.requires_grad:
            grads.append((b1, np.add.reduce(gh, axis=0)))
        if need_x:
            gx = gh @ w1.value.T
    return grads, gx


def reduce_unit_rows(x):
    """`ad.unit_rows` with `np.add.reduce` norms, less its guard."""
    norms = np.sqrt(np.add.reduce(x * x, axis=1))[:, None]
    return x / norms, norms


def reduce_unit_rows_vjp(g, out, norms):
    return (g - out * np.add.reduce(g * out, axis=1, keepdims=True)) / norms


def reduce_layer_norm_forward(x, gain, bias):
    n = x.shape[1]
    centered = x - np.add.reduce(x, axis=1, keepdims=True) / n
    std = np.sqrt(np.add.reduce(centered * centered, axis=1, keepdims=True) / n + ad.LN_EPS)
    normed = centered / std
    return normed * gain + bias, normed, std


def reduce_layer_norm_vjp(g, gain, normed, std):
    n = g.shape[1]
    gn = g * gain
    return (gn - np.add.reduce(gn, axis=1, keepdims=True) / n
            - normed * np.add.reduce(gn * normed, axis=1, keepdims=True) / n) / std


# The helpers above under the names the composites look them up by.
REDUCE_HELPERS = {
    "mlp_vjp": reduce_mlp_vjp,
    "unit_rows": reduce_unit_rows,
    "unit_rows_vjp": reduce_unit_rows_vjp,
    "layer_norm_forward": reduce_layer_norm_forward,
    "layer_norm_vjp": reduce_layer_norm_vjp,
}


def reduce_logit_cross_entropy(visual, rows, labels, scale, weights=None):
    """`ad.logit_cross_entropy` with `np.add.reduce` softmax totals and batch
    mean, and the (rows, labels) tuple gather, less its guards."""
    visual, rows = ad.lift(visual), ad.lift(rows)
    v, r = visual.value, rows.value
    labels = np.asarray(labels, dtype=np.intp)
    n = v.shape[0]
    logits = (v @ r.T) * scale
    shift = np.maximum.reduce(logits, axis=1)
    e = np.exp(logits - shift[:, None])
    total = np.add.reduce(e, axis=1)
    probs = e / total[:, None]
    picked = (np.arange(n), labels)
    losses = (shift + np.log(total)) - logits[picked]
    out = np.add.reduce(losses) / n if weights is None else weights @ losses

    def vjp(g):
        glogits = probs.copy()
        glogits[picked] -= 1.0
        row_g = g / n if weights is None else (g @ weights)[:, None]
        glogits = (glogits * row_g) * scale
        return ((visual, glogits @ r), (rows, (v.T @ glogits).T))

    return ad.node(out, (visual, rows), vjp), probs


def reduce_fuse_rows(anchors, granules, w1, b1, w2, b2, ln_gain, ln_bias):
    """`granules.fuse_rows` with the reduce helpers and `np.add.reduce`
    LayerNorm gain and bias gradients."""
    anchors, granules, w1, b1, w2, b2, ln_gain, ln_bias = map(
        ad.lift, (anchors, granules, w1, b1, w2, b2, ln_gain, ln_bias))
    a = anchors.value
    joint = np.concatenate([a, granules.value], axis=1)
    residual, hidden = ad.mlp_forward(joint, w1.value, b1.value, w2.value, b2.value)
    out, normed, std = reduce_layer_norm_forward(a + residual, ln_gain.value, ln_bias.value)

    def vjp(g):
        gs = reduce_layer_norm_vjp(g, ln_gain.value, normed, std)
        grads, gjoint = reduce_mlp_vjp(gs, joint, hidden, w1, b1, w2, b2, True)
        na = a.shape[1]
        return grads + [(ln_gain, np.add.reduce(g * normed, axis=0)),
                        (ln_bias, np.add.reduce(g, axis=0)),
                        (anchors, gs + gjoint[:, :na]), (granules, gjoint[:, na:].copy())]

    return ad.node(out, (anchors, granules, w1, b1, w2, b2, ln_gain, ln_bias), vjp)


def reduce_loss_sem(probs, raw_rows, t_low):
    """`losses.loss_sem` with `np.add.reduce` norms, cosines and mean, less
    its guards."""
    raw_rows, t_low = ad.lift(raw_rows), ad.lift(t_low)
    rows, norms = reduce_unit_rows(raw_rows.value)
    t_exp, low = probs @ rows, t_low.value
    na = np.sqrt(np.add.reduce(t_exp * t_exp, axis=1))
    nb = np.sqrt(np.add.reduce(low * low, axis=1))
    den = na * nb
    cos = np.add.reduce(t_exp * low, axis=1) / den
    n = cos.size

    def vjp(g):
        gcos = -(g / n)
        gd = (gcos / den)[:, None]
        gc = (gcos * cos)[:, None]
        gexp = gd * low - gc * t_exp / (na * na)[:, None]
        return ((raw_rows, reduce_unit_rows_vjp(probs.T @ gexp, rows, norms)),
                (t_low, gd * t_exp - gc * low / (nb * nb)[:, None]))

    return ad.node(np.add.reduce(1.0 - cos) / n, (raw_rows, t_low), vjp)


def reduce_retrieve_rows(entries, queries, temperature):
    """`bank.retrieve_rows` with `np.add.reduce` softmax sums."""
    queries = ad.lift(queries)
    inv_t = 1.0 / temperature
    scores = (queries.value @ entries.T) * inv_t
    e = np.exp(scores - np.maximum.reduce(scores, axis=1, keepdims=True))
    weights = e / np.add.reduce(e, axis=1, keepdims=True)

    def vjp(g):
        gw = g @ entries.T
        gscores = weights * (gw - np.add.reduce(gw * weights, axis=1, keepdims=True))
        return ((queries, (gscores * inv_t) @ entries),)

    return weights, ad.node(weights @ entries, (queries,), vjp)


def relabelled(cache, index, labels):
    """A cache of the rows `index` of `cache`, gathered into a new block and
    relabelled with `labels`; `LatentCache._of` checks the counts."""
    from bandprompt.teacher import LatentCache

    return LatentCache._of(cache.arrays()[index], np.asarray(labels, dtype=np.int64),
                           [cache.ids[i] for i in index])


def subset_base_to_novel(cache, cfg, shots, select_by_base_val):
    """`evaluate.run_base_to_novel` as it trained before it built its training
    features from its one encoding: `fit` on a copied subset of the training
    rows, which `fit` encodes a second time with its own draw of the frozen
    encoder."""
    from bandprompt import evaluate as ev
    from bandprompt.trainer import ToyVisualEncoder, check_labels, fit, seed_streams

    ev.check_shots(shots, select_by_base_val)
    labels = cache.labels()
    base_classes, novel_classes = ev.split_base_novel(check_labels(labels))
    encoder = ToyVisualEncoder.create(cfg.embed_dim, cache.grid, cfg.seed)
    visual = encoder.encode_batch(cache.arrays())
    rng = np.random.default_rng(seed_streams(cfg.seed)["shots"])
    shot_idx, eval_idx = ev._subsample_shots(labels, shots, rng)
    n_val = max(1, shots // 4) if select_by_base_val else 0
    train_idx, train_labels = ev._gather(base_classes,
                                         {c: shot_idx[c][n_val:] for c in base_classes})
    val_history = []
    best = None
    callback = None
    if select_by_base_val:
        val_idx, val_labels = ev._gather(base_classes,
                                         {c: shot_idx[c][:n_val] for c in base_classes})

        def callback(state, epoch):
            nonlocal best
            if state.bank is not None and not state.bank.full:
                return
            acc = ev.score(state, cfg, visual[val_idx], val_labels)
            val_history.append(acc)
            if best is None or acc > best[0]:
                bank_copy = state.bank.entries.copy() if state.bank is not None else None
                best = (acc, state.optimizer.values.copy(), bank_copy)

    state = fit(relabelled(cache, train_idx, train_labels), cfg, epoch_callback=callback)
    if best is not None:
        state.optimizer.values[...] = best[1]
        if state.bank is not None:
            state.bank.entries = best[2]
    base_idx, base_labels = ev._gather(base_classes, eval_idx)
    base_acc = ev.score(state, cfg, visual[base_idx], base_labels)
    proto = np.stack([visual[shot_idx[c]].mean(axis=0) for c in novel_classes])
    novel_idx, novel_labels = ev._gather(novel_classes, eval_idx)
    novel_acc = ev.score(state, cfg, visual[novel_idx], novel_labels, raw=proto)
    result = ev.EvalResult(
        base_acc=base_acc, novel_acc=novel_acc,
        hm=ev.harmonic_mean(base_acc, novel_acc),
        gap_percent=ev.generalization_gap(base_acc, novel_acc) if base_acc > 0 else float("nan"),
        base_classes=base_classes, novel_classes=novel_classes,
        base_count=len(base_idx), novel_count=len(novel_idx),
    )
    return ev.ProtocolOutput(state=state, result=result, shot_indices=shot_idx,
                             eval_indices=eval_idx, val_history=val_history)


# ---------------------------------------------------------------------------
# the no-gradient passes as they ran on value-only copies of the parameters,
# before they ran on the live parameter tensors


def value_copy_group(params, prefix):
    """`trainer.group` in its value-copy mode: constant tensors over the
    group's values, through which no gradient reaches the parameters."""
    from bandprompt.trainer import group

    return tuple(ad.Tensor(t.value) for t in group(params, prefix))


def value_copy_text_features(state, cfg, raw=None):
    """`TrainState.text_features` over constant copies of the text rows and
    the aggregator."""
    from bandprompt.refine import TextFeatureSet, refined_text_graph

    if raw is None:
        raw = state.params["text_raw"].value
    rows = refined_text_graph(ad.Tensor(raw), state.bank, value_copy_group(state.params, "agg"),
                              cfg.eta)
    return TextFeatureSet(mixed=np.array(rows.value))


def value_copy_low_band_rows(params, phi_base):
    """`trainer.low_band_rows` over constant copies of the low-band head."""
    from bandprompt.bands import head_graph

    return head_graph(ad.Tensor(phi_base), *value_copy_group(params, "proj_low")).value


def value_copy_granule_source_accuracy(state, cfg, arrays, labels, num_batches=8):
    """`evaluate.granule_source_accuracy` over constant copies of the high-band
    head, fusion and FiLM nets, each frozen row wrapped as a constant."""
    from bandprompt.bands import head_graph
    from bandprompt.evaluate import predict
    from bandprompt.granules import check_permutation, film_rows, fuse_rows
    from bandprompt.trainer import compute_features

    labels = np.asarray(labels, dtype=np.intp)
    feats = compute_features(arrays, np.arange(len(arrays)), state.encoder.encode_batch(arrays),
                             labels, cfg.kernel)
    bs = min(cfg.batch_size, len(labels))
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xCF]))
    text_raw = state.params["text_raw"].value
    high_params = value_copy_group(state.params, "proj_high")
    fuse_params = value_copy_group(state.params, "fuse")
    film_params = value_copy_group(state.params, "film")
    if cfg.anchor == "refined_text_by_label":
        anchor_rows = value_copy_text_features(state, cfg).mixed
    else:
        anchor_rows = text_raw
    hits = 0
    total = 0
    for _ in range(num_batches):
        idx = rng.choice(len(labels), size=bs, replace=False)
        pi = check_permutation(rng.permutation(bs), bs)
        y = feats.labels[idx]
        t_high = head_graph(ad.Tensor(feats.phi_detail[idx]), *high_params).value
        codes = fuse_rows(ad.Tensor(anchor_rows[y]), ad.Tensor(t_high[pi]), *fuse_params)
        v_cf = film_rows(codes, ad.Tensor(feats.visual[idx]), *film_params).value
        _, pred = predict(v_cf, text_raw, cfg.logit_scale)
        hits += int(np.sum(pred == y[pi]))
        total += bs
    return 100.0 * hits / total
