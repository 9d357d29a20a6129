"""Synthetic latent caches: what the generator hides in each band.

Every sample is a fixed class pattern plus an instance pattern plus white
noise on a (C, h, w) grid. `identity_band` picks which pattern family carries
the class label: smooth low-order modes or near-Nyquist checkers. The cache
round-trips through a small binary format, and truncated files fail loudly
with the index of the record that broke.
"""

import tempfile
from pathlib import Path

import numpy as np

from bandprompt.errors import CacheCorruptionError
from bandprompt.teacher import (
    SyntheticSpec,
    class_mode_patterns,
    generate_dataset,
    read_cache,
    write_cache,
)


def describe(tag: str, spec: SyntheticSpec) -> None:
    cache = generate_dataset(spec, n_per_class=6)
    arrays = cache.arrays()
    labels = cache.labels()
    print(f"\n== identity_band={tag} ==")
    print(f"cache: {len(cache)} records, grid {cache.grid}, "
          f"ids {cache.ids[0]} .. {cache.ids[-1]}")

    # within-class spread vs between-class spread of the raw latents
    per_class = np.stack([arrays[labels == c].mean(axis=0) for c in range(spec.num_classes)])
    within = float(np.mean([arrays[labels == c].std(axis=0).mean()
                            for c in range(spec.num_classes)]))
    between = float(per_class.std(axis=0).mean())
    print(f"within-class std {within:.3f} vs between-class std {between:.3f}")

    # class means should lie almost entirely in the span of the K identity
    # modes; instance patterns and noise average toward zero
    modes = class_mode_patterns(spec)
    modes = modes.reshape(modes.shape[0], -1)  # (K, C*h*w)
    flat = per_class.reshape(spec.num_classes, -1)
    coef, *_ = np.linalg.lstsq(modes.T, flat.T, rcond=None)
    resid = flat - coef.T @ modes
    share = 1.0 - float((resid**2).sum() / (flat**2).sum())
    print(f"class-mean energy inside the identity-mode span: {100 * share:.1f}%")


def main() -> None:
    rng_seed = 0
    low = SyntheticSpec(num_classes=4, identity_band="low", seed=rng_seed)
    high = SyntheticSpec(num_classes=4, identity_band="high", seed=rng_seed)
    describe("low", low)
    describe("high", high)

    # ------------------------------------------------------------------
    # binary round-trip: bitwise equality, then a deliberate truncation
    cache = generate_dataset(high, n_per_class=6)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "latents.bin"
        write_cache(cache, path)
        blob = path.read_bytes()
        again = read_cache(path)
        print(f"\nround-trip: {len(blob)} bytes, equal={again == cache}")

        # chop the end off the last record; the reader names the culprit
        path.write_bytes(blob[: len(blob) - cache.grid[0] * cache.grid[1] * 2])
        try:
            read_cache(path)
        except CacheCorruptionError as err:
            print(f"truncated read -> CacheCorruptionError: {err}")
            print(f"record_index = {err.record_index}")


if __name__ == "__main__":
    main()
