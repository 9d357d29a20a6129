"""Semantic bank + text refinement: fill, EMA updates, retrieval, mixing.

The bank is an (M, d) matrix of unit vectors. Absorbing fills slots in order;
once full, each new vector EMA-updates its nearest entry and renormalizes.
Retrieval is softmax attention over entries at a fixed temperature, and the
aggregator turns [row, context] into a residual update whose output is
re-normalized. `refined_text_graph` mixes raw and refined rows by eta; at
eta=0 it returns the raw rows themselves. Retrieval and refinement are the
batched tape composites, run here on one-row batches; the aggregator is a
fresh `agg` group of the trainer's parameter table.
"""

import tempfile
from pathlib import Path

import numpy as np

from bandprompt.bank import (
    SemanticBank,
    absorb,
    format_bank,
    read_bank,
    retrieve_rows,
    write_bank,
)
from bandprompt.granules import fuse_rows
from bandprompt.refine import refined_text_graph
from bandprompt.trainer import init_group


def unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def main() -> None:
    rng = np.random.default_rng(3)
    d = 8
    bank = SemanticBank.create(size=4, dim=d, momentum=0.3, temperature=0.07)
    print(f"new bank: size {bank.size}, dim {bank.dim}, mode {bank.mode}")

    # fill phase: absorb takes an (n, d) stack; four rows land in slots 0..3
    # verbatim
    vecs = [unit(rng, d) for _ in range(4)]
    absorb(bank, np.stack(vecs))
    print(f"after a 4-row absorb: mode {bank.mode}, "
          f"slot 0 unchanged: {bool(np.array_equal(bank.entries[0], vecs[0]))}")

    # EMA phase: a nudged copy of slot 2 pulls only slot 2
    before = bank.entries.copy()
    nudged = vecs[2] + 0.2 * unit(rng, d)
    absorb(bank, (nudged / np.linalg.norm(nudged))[None])
    moved = np.flatnonzero(np.abs(bank.entries - before).max(axis=1) > 0)
    print(f"EMA absorb moved slots {moved.tolist()}, "
          f"|slot 2 shift| = {float(np.linalg.norm(bank.entries[2] - before[2])):.4f}, "
          f"norms {np.round(np.linalg.norm(bank.entries, axis=1), 12).tolist()}")

    # retrieval: weights softmax to 1; sharper for queries near an entry
    near, _ = retrieve_rows(bank.entries, bank.entries[1:2], bank.temperature)
    far, _ = retrieve_rows(bank.entries, unit(rng, d)[None, :], bank.temperature)
    print(f"retrieval near entry 1: weights {np.round(near[0], 3).tolist()}")
    print(f"retrieval far query:    weights {np.round(far[0], 3).tolist()}")

    # ------------------------------------------------------------------
    # refinement: LayerNorm(t + MLP([t ; r])). The final affine starts at
    # zero, so a fresh aggregator is exactly LayerNorm(t) and ignores r.
    agg = init_group("agg", 0, 0, d, np.random.default_rng(7))
    t = unit(rng, d)[None, :]  # one text row
    _, r = retrieve_rows(bank.entries, t, bank.temperature)
    t_ref = fuse_rows(t, r, *agg.values()).value
    ln = (t - t.mean()) / np.sqrt(t.var() + 1e-5)
    print(f"\nfresh aggregator == LayerNorm(t): {bool(np.allclose(t_ref, ln))} "
          f"(row mean {t_ref.mean():.1e}, |row| = sqrt(d) = {float(np.linalg.norm(t_ref)):.4f})")

    # give the residual path weight and the context starts to matter
    agg["agg.w2"] = np.random.default_rng(8).normal(0.0, 0.3, size=(d, d))
    with_r = fuse_rows(t, r, *agg.values()).value
    with_other = fuse_rows(t, unit(rng, d)[None, :], *agg.values()).value
    print(f"context sensitivity: max |refine(t, r) - refine(t, r')| = "
          f"{float(np.abs(with_r - with_other).max()):.4f}")
    for eta in (0.0, 0.5, 1.0):
        m = refined_text_graph(t, bank, tuple(agg.values()), eta).value
        print(f"  eta={eta}: max |mix - raw| = {float(np.abs(m - t).max()):.4f}")

    # eta=0 must collapse every consumer to the raw rows
    raw = np.stack([unit(rng, d) for _ in range(3)])
    rows = refined_text_graph(raw, bank, tuple(agg.values()), 0.0).value
    print(f"eta=0 class rows: equal to raw is {bool(np.array_equal(rows, raw))}")

    # ------------------------------------------------------------------
    # text dump round-trip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bank.txt"
        write_bank(bank, path)
        again = read_bank(path)
        print(f"\ndump/parse: entries equal {bool(np.allclose(again.entries, bank.entries))}, "
              f"header line {format_bank(bank).splitlines()[0]!r}")


if __name__ == "__main__":
    main()
