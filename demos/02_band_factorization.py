"""Band factorization: split a latent into base + detail, reconstruct exactly.

The base band is a replicate-padded k x k box mean computed in float64 and
quantized back to the input dtype; the detail band is defined as the source
minus that quantized base, so base + detail reproduces the input bitwise for
any odd k. Per-channel mean-absolute stats of each band feed the two small
projection heads (`proj_low` and `proj_high` in the trainer's parameter
table), which emit unit-norm embeddings.
"""

import numpy as np

from bandprompt.bands import band_stats, factorize, head_graph
from bandprompt.teacher import SyntheticSpec, generate_dataset
from bandprompt.trainer import init_group


def main() -> None:
    cache = generate_dataset(SyntheticSpec(num_classes=4, identity_band="high", seed=1),
                             n_per_class=4)
    z = cache.arrays()[0]  # (4, 16, 16) float32

    print("kernel | max |z - (base+detail)| | base share of energy")
    for k in (1, 3, 5, 7, 9):
        pair = factorize(z, k)
        resid = float(np.abs(z - (pair.base + pair.detail)).max())
        base_share = float((pair.base.astype(np.float64) ** 2).sum()
                           / (np.asarray(z, np.float64) ** 2).sum())
        print(f"  k={k}  |            {resid:.1e}            | {100 * base_share:5.1f}%")

    # k=1 is the identity split: everything lands in base, detail is zero
    pair1 = factorize(z, 1)
    print(f"k=1 detail max |.| = {float(np.abs(pair1.detail).max()):.1e}")

    # ------------------------------------------------------------------
    # band stats + projection heads
    pair = factorize(z, 7)
    s_low = band_stats(pair.base)
    s_high = band_stats(pair.detail)
    print(f"\nband stats (per-channel mean |.|):")
    print(f"  base   {np.array2string(s_low, precision=3)}")
    print(f"  detail {np.array2string(s_high, precision=3)}")

    rng = np.random.default_rng(0)
    for band, stats in (("low", s_low), ("high", s_high)):
        head = init_group(f"proj_{band}", 0, 4, 8, rng).values()  # 4 channels -> d = 8
        e = head_graph(stats[None, :], *head).value[0]
        print(f"  {band}-band embedding: dim {e.shape[0]}, "
              f"norm {float(np.linalg.norm(e)):.12f}")


if __name__ == "__main__":
    main()
