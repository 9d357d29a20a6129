"""End-to-end acceptance criteria for the shipped pipeline.

Eight numbered criteria, each with a single printed verdict line and hard
tolerances. The verdict prints before the asserts so a failing run still
shows every criterion's outcome in the captured output.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.bands import factorize, head_graph
from bandprompt.diagnostics import band_overlap, diagnose, radial_spectrum
from bandprompt.errors import CacheCorruptionError
from bandprompt.evaluate import (
    generalization_gap,
    granule_source_accuracy,
    harmonic_mean,
    predict,
    run_base_to_novel,
)
from bandprompt.granules import check_permutation, film_rows, fuse_rows
from bandprompt.losses import loss_granule, loss_sem
from bandprompt.teacher import (
    LatentCache,
    SyntheticSpec,
    generate_dataset,
    read_cache,
    write_cache,
)
from bandprompt.trainer import (
    FROZEN_INPUTS,
    TrainConfig,
    compute_features,
    fit,
    forward_batch,
    group,
    run_gradient_check,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num}/8] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


# ---------------------------------------------------------------------------
# 1. exact factorization


def test_1_exact_factorization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    grid = (4, 16, 16)

    latents = []
    for _ in range(900):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        latents.append((scale * rng.normal(size=grid)).astype(np.float32))
    for band in ("low", "high"):
        spec = SyntheticSpec(num_classes=4, identity_band=band, seed=7)
        latents.extend(r.latent.data for r in generate_dataset(spec, 13).records[:50])
    assert len(latents) == 1000

    worst = 0.0
    for z in latents:
        arr = np.asarray(z, dtype=np.float64)
        for k in (1, 3, 5, 7):
            pair = factorize(z, k)
            diff = np.abs(arr - (pair.base + pair.detail))
            worst = max(worst, float(diff.max()))

    const_worst = 0.0
    for c in (0.0, 1.0, -2.5, 317.25, 1e6, 1e-6):
        z = np.full(grid, c, dtype=np.float32)
        for k in (1, 3, 5, 7):
            pair = factorize(z, k)
            const_worst = max(const_worst, float(np.abs(pair.detail).max()))

    elapsed = time.perf_counter() - t0
    ok = worst == 0.0 and const_worst <= 1e-6 and elapsed < 5.0
    _verdict(1, "exact band factorization", ok,
             f"max residual {worst:.1e}, constant detail {const_worst:.1e}, {elapsed:.2f}s")
    assert worst == 0.0, "reconstruction must be bitwise across 1000 latents, k in {1,3,5,7}"
    assert const_worst <= 1e-6
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. gradient suite


def _graph_nodes(root: ad.Tensor) -> list[ad.Tensor]:
    seen: set[int] = set()
    stack, out = [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node._parents)
    return out


def test_2_gradient_suite():
    t0 = time.perf_counter()
    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), 8)
    cfg = TrainConfig(embed_dim=8, bank_size=6, batch_size=5, seed=0)

    # every trainable scalar against five-point finite differences
    report = run_gradient_check(cache, cfg)
    fd_ok = report.worst_error < 1e-4
    assert set(report.excluded) == set(FROZEN_INPUTS)

    # frozen inputs: the optimizer never moves them and the objective graph
    # holds them as gradient-free constants
    pristine = cache.arrays().copy()
    state1 = fit(cache, replace(cfg, epochs=1))
    state3 = fit(cache, replace(cfg, epochs=3))
    frozen_ok = (
        np.array_equal(state1.bank.entries, state3.bank.entries)
        and np.array_equal(cache.arrays(), pristine)
        and np.array_equal(state1.encoder.weight, state3.encoder.weight)
    )
    trained = any(
        not np.array_equal(state1.params[k].value, state3.params[k].value)
        for k in state1.params
    )

    feats = compute_features(state3.encoder, cache.arrays(), cache.labels(), cfg.kernel)
    idx = np.arange(cfg.batch_size)
    pi = np.random.default_rng(0).permutation(cfg.batch_size)
    total, _ = forward_batch(state3.params, feats, idx, state3.bank, cfg, pi)
    ad.backward(total)
    nodes = _graph_nodes(total)
    param_ids = {id(t) for t in state3.params.values()}
    grad_roots = [n for n in nodes if n.requires_grad and not n._parents]
    roots_ok = all(id(n) in param_ids for n in grad_roots)
    consts_ok = all(n.grad is None for n in nodes if not n.requires_grad)
    entries_anchored = any(
        not n.requires_grad and n.value.shape == state3.bank.entries.shape
        and np.shares_memory(n.value, state3.bank.entries)
        for n in nodes
    )

    # stop-gradient: with pinned pseudo-labels the alignment term carries no
    # derivative into the aggregator, analytically or by value
    state3.optimizer.zero_grad()
    probs = np.full((cfg.batch_size, 4), 0.25)

    def sem_term() -> ad.Tensor:
        t_low = head_graph(ad.constant(feats.phi_base[idx]),
                           *group(state3.params, "proj_low"))
        return loss_sem(probs, state3.params["text_raw"], t_low)

    sem = sem_term()
    ad.backward(sem)
    agg = [state3.params[k] for k in state3.params if k.startswith("agg.")]
    sem_ids = {id(n) for n in _graph_nodes(sem)}
    # No aggregator tensor is on the semantic tape, and the optimizer's
    # gradient views of all of them stay exactly zero.
    agg_grad_ok = (not any(id(p) in sem_ids for p in agg)
                   and all(not p.grad.any() for p in agg))
    base_val = sem.item()
    saved = state3.params["agg.w1"].value.copy()
    state3.params["agg.w1"].value[...] = saved + 1e-3
    agg_fd_zero = sem_term().item() == base_val
    state3.params["agg.w1"].value[...] = saved

    elapsed = time.perf_counter() - t0
    ok = (fd_ok and frozen_ok and trained and roots_ok and consts_ok
          and entries_anchored and agg_grad_ok and agg_fd_zero and elapsed < 60.0)
    _verdict(2, "gradient suite (d=8, 4 classes, M=6, batch=5)", ok,
             f"worst rel err {report.worst_error:.2e} @ {report.worst_param}, {elapsed:.1f}s")
    assert fd_ok, f"finite differences disagree: {report.worst_param} {report.worst_error:.3e}"
    assert frozen_ok and trained
    assert roots_ok and consts_ok and entries_anchored
    assert agg_grad_ok and agg_fd_zero
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. counterfactual semantics


def test_3_counterfactual_semantics():
    rng = np.random.default_rng(3)
    d = 8
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 14))
        c = int(rng.integers(2, 6))
        fuse_p = (ad.parameter(0.5 * rng.normal(size=(2 * d, d))),
                  ad.parameter(0.1 * rng.normal(size=d)),
                  ad.parameter(0.5 * rng.normal(size=(d, d))),
                  ad.parameter(0.1 * rng.normal(size=d)),
                  ad.parameter(1.0 + 0.1 * rng.normal(size=d)),
                  ad.parameter(0.1 * rng.normal(size=d)))
        film_p = (ad.parameter(0.5 * rng.normal(size=(d, d))),
                  ad.parameter(0.1 * rng.normal(size=d)),
                  ad.parameter(0.5 * rng.normal(size=(d, 2 * d))),
                  ad.parameter(0.1 * rng.normal(size=2 * d)))
        anchors = ad.constant(rng.normal(size=(n, d)))
        t_high = ad.constant(rng.normal(size=(n, d)))
        visual = rng.normal(size=(n, d))
        visual = ad.constant(visual / np.linalg.norm(visual, axis=1, keepdims=True))
        rows = ad.constant(rng.normal(size=(c, d)))
        y = rng.integers(0, c, size=n)
        identity = np.arange(n)

        factual = loss_granule(
            film_rows(fuse_rows(anchors, t_high, *fuse_p), visual, *film_p),
            rows, y, 10.0).item()
        swapped = loss_granule(
            film_rows(fuse_rows(anchors, ad.take_rows(t_high, identity), *fuse_p),
                      visual, *film_p),
            rows, y[identity], 10.0).item()
        worst = max(worst, abs(swapped - factual))

    multiset_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 20))
        granules = rng.normal(size=(n, d))
        pi = check_permutation(rng.permutation(n), n)
        swapped = ad.take_rows(ad.constant(granules), pi).value
        multiset_ok &= sorted(g.tobytes() for g in granules) == sorted(
            g.tobytes() for g in swapped)

    ok = worst < 1e-12 and multiset_ok
    _verdict(3, "counterfactual semantics", ok,
             f"identity-permutation gap {worst:.1e} over 100 batches")
    assert worst < 1e-12
    assert multiset_ok


# ---------------------------------------------------------------------------
# 4. metric reproduction


def test_4_metric_values():
    hm1 = harmonic_mean(82.69, 63.22)
    hm2 = harmonic_mean(83.32, 70.74)
    gap = generalization_gap(82.69, 63.22)
    ok = abs(hm1 - 71.66) <= 0.005 and abs(hm2 - 76.52) <= 0.005 and abs(gap - 23.55) <= 0.01
    _verdict(4, "metric reproduction", ok,
             f"hm {hm1:.4f}/{hm2:.4f}, gap {gap:.4f}")
    assert hm1 == pytest.approx(71.66, abs=0.005)
    assert hm2 == pytest.approx(76.52, abs=0.005)
    assert gap == pytest.approx(23.55, abs=0.01)


# ---------------------------------------------------------------------------
# 5. spectral diagnostic properties


def _brute_force_radial(arr: np.ndarray, num_bins: int) -> np.ndarray:
    c, h, w = arr.shape
    power = np.zeros((h, w))
    for ch in range(c):
        power += np.abs(np.fft.fft2(arr[ch])) ** 2
    power /= c
    fu = np.fft.fftfreq(h)
    fv = np.fft.fftfreq(w)
    r_max = np.sqrt(np.max(np.abs(fu)) ** 2 + np.max(np.abs(fv)) ** 2)
    out = np.zeros(num_bins)
    for i in range(h):
        for j in range(w):
            r = np.sqrt(fu[i] ** 2 + fv[j] ** 2) / r_max
            b = min(max(int(np.ceil(r * num_bins)), 1), num_bins)
            out[b - 1] += power[i, j]
    return out / power.sum()


def test_5_spectral_diagnostics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    sum_ok = oracle_ok = True
    spectra = []
    for shape in ((2, 8, 8), (1, 6, 10), (3, 16, 16), (4, 16, 16)):
        for _ in range(3):
            z = rng.normal(size=shape)
            spec = radial_spectrum(z, 10)
            spectra.append(spec)
            sum_ok &= abs(spec.energies.sum() - 1.0) <= 1e-9
            oracle_ok &= bool(
                np.allclose(spec.energies, _brute_force_radial(z, 10), atol=1e-9))

    dc = radial_spectrum(np.full((2, 8, 8), 1.5), 10)
    dc_ok = abs(dc.energies[0] - 1.0) <= 1e-12 and np.all(np.abs(dc.energies[1:]) <= 1e-12)

    bound_ok = True
    for a in spectra:
        for b in spectra:
            if a.num_bins == b.num_bins:
                v = band_overlap(a, b)
                bound_ok &= 0.0 <= v <= 1.0
        bound_ok &= abs(band_overlap(a, a) - 1.0) <= 1e-9

    cache = generate_dataset(SyntheticSpec(num_classes=8, noise_std=0.0, seed=0), 25)
    assert len(cache) == 200
    report = diagnose(cache, kernel=7, num_bins=10, align=(14, 14))
    sep_ok = report.overlap_mean <= 0.2

    elapsed = time.perf_counter() - t0
    ok = sum_ok and oracle_ok and dc_ok and bound_ok and sep_ok and elapsed < 30.0
    _verdict(5, "spectral diagnostics", ok,
             f"mean band overlap {report.overlap_mean:.4f} on 200 samples, {elapsed:.2f}s")
    assert sum_ok and oracle_ok and dc_ok and bound_ok
    assert sep_ok, f"mean overlap {report.overlap_mean:.4f} > 0.2"
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 6. mechanism efficacy


def test_6_mechanism_efficacy():
    t0 = time.perf_counter()
    cache = generate_dataset(
        SyntheticSpec(num_classes=8, identity_band="high", noise_std=0.05, seed=4), 48)
    # Low logit scale keeps the cross-entropy terms from saturating on a
    # linearly separable toy set; refresh plus refined anchors are the knobs
    # that let both auxiliary terms reach the inference-side text path.
    base_cfg = TrainConfig(
        seed=4, logit_scale=5.0, epochs=100, learning_rate=2e-3,
        bank_size=16, bank_momentum=0.5, bank_refresh=True,
        anchor="refined_text_by_label",
        lambda_sem=0.15, lambda_gf=0.1, lambda_gcf=0.1,
    )
    labels = cache.labels()
    arrays = cache.arrays()

    novel: dict[str, float] = {}
    source: dict[str, float] = {}
    for name, flags in {
        "full":   dict(),
        "sem+gf": dict(lambda_gcf=0.0),
        "sem":    dict(lambda_gf=0.0, lambda_gcf=0.0),
        "gf":     dict(lambda_sem=0.0, lambda_gcf=0.0),
    }.items():
        cfg = replace(base_cfg, **flags)
        proto = run_base_to_novel(cache, cfg, shots=16, select_by_base_val=False)
        novel[name] = proto.result.novel_acc
        if cfg.lambda_gf > 0:
            mask = np.isin(labels, proto.result.base_classes)
            remap = {c: i for i, c in enumerate(proto.result.base_classes)}
            base_labels = np.array([remap[c] for c in labels[mask]])
            source[name] = granule_source_accuracy(
                proto.state, cfg, arrays[mask], base_labels, num_batches=8)

    gap = source["full"] - source["sem+gf"]
    elapsed = time.perf_counter() - t0
    ok = (gap >= 20.0 and novel["sem+gf"] > novel["sem"]
          and novel["sem+gf"] > novel["gf"] and elapsed < 300.0)
    _verdict(6, "mechanism efficacy (8 classes, 16-shot)", ok,
             f"source acc {source['full']:.1f} vs {source['sem+gf']:.1f} (gap {gap:+.1f}), "
             f"novel sem+gf {novel['sem+gf']:.1f} > sem {novel['sem']:.1f} / gf {novel['gf']:.1f}, "
             f"{elapsed:.0f}s")
    assert gap >= 20.0, f"counterfactual ablation gap {gap:.2f} < 20"
    assert novel["sem+gf"] > novel["sem"]
    assert novel["sem+gf"] > novel["gf"]
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 7. inference parity


def test_7_inference_parity():
    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), 12)
    cfg = TrainConfig(embed_dim=8, bank_size=6, batch_size=5, epochs=6, seed=0)
    state = fit(cache, cfg)
    visual = state.encoder.encode_batch(cache.arrays())

    logits_eta0, pred_eta0 = predict(
        visual, state.text_features(replace(cfg, eta=0.0)), cfg.logit_scale)
    logits_raw, pred_raw = predict(visual, state.params["text_raw"].value, cfg.logit_scale)
    eta0_ok = np.array_equal(logits_eta0, logits_raw) and np.array_equal(pred_eta0, pred_raw)

    logits_before, pred_before = predict(visual, state.text_features(cfg), cfg.logit_scale)
    rng = np.random.default_rng(99)
    for key in list(state.params):
        if key.startswith(("film.", "fuse.", "proj_high.")):
            state.params[key].value[...] = rng.normal(size=state.params[key].value.shape)
    del cache  # nothing latent-side survives; prediction must not notice
    logits_after, pred_after = predict(visual, state.text_features(cfg), cfg.logit_scale)
    purity_ok = (np.array_equal(logits_before, logits_after)
                 and np.array_equal(pred_before, pred_after))

    ok = eta0_ok and purity_ok
    _verdict(7, "inference parity", ok,
             "eta=0 equals raw baseline bitwise; modulation branch inert at inference")
    assert eta0_ok
    assert purity_ok


# ---------------------------------------------------------------------------
# 8. determinism and cache I/O


def test_8_determinism_and_io(tmp_path):
    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), 12)
    cfg = TrainConfig(embed_dim=8, bank_size=6, batch_size=5, epochs=6, seed=0)

    s1 = fit(cache, cfg)
    s2 = fit(cache, cfg)
    repro_ok = all(
        np.array_equal(s1.params[k].value, s2.params[k].value) for k in s1.params
    ) and np.array_equal(s1.bank.entries, s2.bank.entries)
    r1 = run_base_to_novel(cache, cfg, shots=8, select_by_base_val=False).result
    r2 = run_base_to_novel(cache, cfg, shots=8, select_by_base_val=False).result
    repro_ok &= r1 == r2

    path = tmp_path / "roundtrip.bpc"
    write_cache(cache, path)
    loaded = read_cache(path)
    assert isinstance(loaded, LatentCache)
    io_ok = loaded == cache and all(
        a.latent.data.tobytes() == b.latent.data.tobytes()
        for a, b in zip(loaded.records, cache.records)
    )
    rewritten = tmp_path / "rewritten.bpc"
    write_cache(loaded, rewritten)
    io_ok &= path.read_bytes() == rewritten.read_bytes()

    blob = path.read_bytes()
    record_size = 2 + len("c000_s00000") + 16 + 4 * 4 * 16 * 16
    torn = tmp_path / "torn.bpc"
    torn.write_bytes(blob[: 12 + 2 * record_size + 100])
    with pytest.raises(CacheCorruptionError) as err:
        read_cache(torn)
    trunc_ok = err.value.record_index == 2 and "record 2" in str(err.value)

    ok = repro_ok and io_ok and trunc_ok
    _verdict(8, "determinism and cache I/O", ok,
             "bitwise repeatable training; byte-stable cache round-trip")
    assert repro_ok
    assert io_ok
    assert trunc_ok
