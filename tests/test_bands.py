"""Box-filter factorization and band projection heads."""

from fractions import Fraction

import numpy as np
import pytest

import bandprompt.autodiff as ad
from bandprompt.bands import band_stats, factorize, head_graph, smooth_lowpass, uniform_init
from bandprompt.errors import NumericalDegeneracyError, ParameterError
from bandprompt.trainer import init_group
from reference_ops import mul, tsum


def brute_force_box_mean(arr, k):
    """Independent oracle: per-channel k*k mean with edge replication."""
    c, h, w = arr.shape
    pad = k // 2
    out = np.empty_like(arr, dtype=np.float64)
    for ch in range(c):
        padded = np.pad(arr[ch].astype(np.float64), pad, mode="edge")
        for i in range(h):
            for j in range(w):
                out[ch, i, j] = padded[i : i + k, j : j + k].mean()
    return out


def test_smooth_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for k in (1, 3, 5, 7):
        z = rng.normal(size=(2, 9, 11))
        got = smooth_lowpass(z, k)
        assert np.allclose(got, brute_force_box_mean(z, k), atol=1e-12)


def exact_box_mean(arr, k):
    """Oracle: each cell's edge-replicated k x k mean in exact rational
    arithmetic, rounded once to float64."""
    pad = k // 2
    out = np.empty(arr.shape)
    for ch in range(arr.shape[0]):
        padded = np.pad(arr[ch], pad, mode="edge")
        for i, j in np.ndindex(arr.shape[1:]):
            window = padded[i : i + k, j : j + k].ravel().tolist()
            out[ch, i, j] = float(sum(map(Fraction, window)) / (k * k))
    return out


@pytest.mark.parametrize("k", [3, 5, 7])
def test_smooth_is_the_correctly_rounded_box_mean(k):
    # float32-valued cells over several binades: the tap-count sum is exact,
    # so every cell, borders included, is the exact mean rounded once
    rng = np.random.default_rng(11)
    scale = 2.0 ** rng.integers(-6, 7, size=(3, 2, 7, 9))
    stack = (rng.normal(size=(3, 2, 7, 9)) * scale).astype(np.float32).astype(np.float64)
    smooth = smooth_lowpass(stack, k)
    for i, z in enumerate(stack):
        want = exact_box_mean(z, k)
        assert np.array_equal(smooth_lowpass(z, k), want), i
        assert np.array_equal(smooth[i], want), i


def test_smooth_pinned_3x3_values():
    z = np.arange(1.0, 10.0).reshape(1, 3, 3)
    got = smooth_lowpass(z, 3)
    assert got[0, 1, 1] == pytest.approx(5.0, abs=1e-12)
    # replicate-padded corner window: [[1,1,2],[1,1,2],[4,4,5]]
    assert got[0, 0, 0] == pytest.approx(21.0 / 9.0, abs=1e-12)


def test_smooth_identity_and_constant_cases():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(3, 6, 6))
    assert np.array_equal(smooth_lowpass(z, 1), z)
    const = np.full((2, 8, 8), 3.25)
    for k in (3, 5, 7):
        # the box sum of a constant is exact, so its mean is the constant
        assert np.array_equal(smooth_lowpass(const, k), const)
        assert np.array_equal(factorize(const, k).detail, np.zeros_like(const))


def test_smooth_is_linear():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(1, 10, 10))
    b = rng.normal(size=(1, 10, 10))
    lhs = smooth_lowpass(2.0 * a + 0.5 * b, 5)
    rhs = 2.0 * smooth_lowpass(a, 5) + 0.5 * smooth_lowpass(b, 5)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_smooth_contracts_energy():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(2, 12, 12))
    z -= z.mean()
    for k in (3, 5, 7):
        assert np.sum(smooth_lowpass(z, k) ** 2) <= np.sum(z * z) + 1e-9


def test_smooth_rejects_bad_kernels():
    z = np.zeros((1, 8, 8))
    for k in (0, 2, -1, 9):
        with pytest.raises(ParameterError):
            smooth_lowpass(z, k)


def test_factorize_reconstructs_bitwise():
    # latents are float32-valued; that granularity is what makes the
    # residual subtraction exact rather than merely close
    rng = np.random.default_rng(4)
    for k in (1, 3, 7):
        z = rng.normal(size=(4, 16, 16)).astype(np.float32).astype(np.float64)
        pair = factorize(z, k)
        assert np.array_equal(pair.base + pair.detail, z)
        assert pair.kernel == k
        scale = np.max(np.abs(z))
        assert np.max(np.abs(pair.base - brute_force_box_mean(z, k))) <= 1e-7 * scale
    z = np.arange(1.0, 10.0).reshape(1, 3, 3)
    assert factorize(z, 3).detail[0, 1, 1] == 0.0


def test_factorize_reconstructs_near_zero_box_means_without_the_fix_up():
    # rows alternating +-1 have exact zero interior means; offsetting one cell
    # by 3e-7 gives box means far below the cell scale. Their float32-rounded
    # base already subtracts exactly, so this checks the plain split and never
    # reaches the tiny-base fix-up of `factorize`;
    # `test_stacked_split_equals_the_per_latent_split` builds a latent that does
    z = np.tile(np.array([1.0, -1.0], dtype=np.float32), (1, 8, 8))
    z[0, 3, 3] += np.float32(3e-7)
    z = z.astype(np.float64)
    rounded = smooth_lowpass(z, 3).astype(np.float32).astype(np.float64)
    assert np.array_equal(rounded + (z - rounded), z)
    pair = factorize(z, 3)
    assert np.array_equal(pair.base, rounded)
    assert np.array_equal(pair.base + pair.detail, z)


def test_factorize_reconstructs_a_cell_far_below_its_box_mean():
    # Cell (2, 4, 12) of this latent holds 3.67e-11 under a float32 box mean
    # of -0.112: z - base needs more than 53 bits, so the rounded split would
    # read back 3.667910419835607e-11. Such a cell keeps z in its detail band.
    from bandprompt.teacher import SyntheticSpec, generate_dataset

    cache = generate_dataset(SyntheticSpec(num_classes=8, seed=34), 256)
    z = cache.arrays()[list(cache.ids).index("c001_s00242")].astype(np.float64)
    cell = (2, 4, 12)
    rounded = smooth_lowpass(z, 7).astype(np.float32).astype(np.float64)
    assert rounded[cell] + (z[cell] - rounded[cell]) != z[cell]
    pair = factorize(z, 7)
    assert np.array_equal(pair.base + pair.detail, z)
    assert pair.base[cell] == 0.0 and pair.detail[cell] == z[cell]
    others = np.ones(z.shape, dtype=bool)
    others[cell] = False
    assert np.array_equal(pair.base[others], rounded[others])


def tiny_base_latent(k):
    """A (2, 8, 8) latent whose (0, 3, 3) window sums exactly to
    -(k * k) 2^-53, so its box mean is exactly -2^-53 (also after rounding to
    float32) against a cell of 1: the residual subtraction cannot be exact,
    so `factorize` zeroes that base cell."""
    z = np.zeros((2, 8, 8))
    z[0, 3, 3], z[0, 4, 3], z[0, 4, 4] = 1.0, -1.0, -(k * k) * 2.0**-53
    return z


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_stacked_split_equals_the_per_latent_split(k):
    rng = np.random.default_rng(10)
    stack = rng.normal(size=(5, 2, 8, 8)).astype(np.float32).astype(np.float64)
    stack[2] = tiny_base_latent(k)
    if k > 1:
        rounded = smooth_lowpass(stack[2], k).astype(np.float32).astype(np.float64)
        assert rounded[0, 3, 3] != 0.0 and factorize(stack[2], k).base[0, 3, 3] == 0.0
    pair = factorize(stack, k)
    assert pair.kernel == k and np.array_equal(pair.base + pair.detail, stack)
    smooth = smooth_lowpass(stack, k)
    stats = band_stats(stack)
    assert stats.shape == (5, 2)
    for i, z in enumerate(stack):
        one = factorize(z, k)
        assert np.array_equal(pair.base[i], one.base), i
        assert np.array_equal(pair.detail[i], one.detail), i
        assert np.array_equal(smooth[i], smooth_lowpass(z, k)), i
        assert np.array_equal(stats[i], band_stats(z)), i
    single = factorize(stack[2:3], k)
    assert np.array_equal(single.base[0], pair.base[2])
    assert np.array_equal(single.detail[0], pair.detail[2])
    assert np.array_equal(band_stats(stack[2:3]), stats[2:3])


def test_band_split_rejects_other_ranks():
    for shape in ((8, 8), (1, 2, 2, 8, 8)):
        z = np.zeros(shape)
        for split in (lambda a: factorize(a, 3), lambda a: smooth_lowpass(a, 3), band_stats):
            with pytest.raises(ParameterError, match="stack"):
                split(z)


def test_band_stats_values_and_symmetry():
    z = np.array([[[1.0, -1.0], [2.0, -2.0]]])
    assert np.allclose(band_stats(z), [1.5], atol=1e-12)
    assert np.array_equal(band_stats(np.zeros((3, 4, 4))), np.zeros(3))
    rng = np.random.default_rng(5)
    z = rng.normal(size=(2, 6, 6))
    assert np.array_equal(band_stats(z), band_stats(-z))


def test_uniform_init_bounds():
    rng = np.random.default_rng(6)
    w = uniform_init(rng, 16, 8)
    assert w.shape == (16, 8)
    assert np.max(np.abs(w)) <= 1.0 / 4.0


def test_head_outputs_unit_rows():
    rng = np.random.default_rng(7)
    head = init_group("proj_low", 0, 4, 8, rng).values()
    stats = np.abs(rng.normal(size=4))
    out = head_graph(stats[None, :], *head).value
    assert out.shape == (1, 8)
    assert abs(np.linalg.norm(out[0]) - 1.0) <= 1e-6


def test_zero_weight_head_returns_normalized_bias():
    rng = np.random.default_rng(8)
    w1, b1, w2, _ = init_group("proj_high", 0, 3, 4, rng).values()
    zero = (np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2),
            np.array([3.0, 0.0, 4.0, 0.0]))
    for _ in range(5):
        stats = np.abs(rng.normal(size=3))
        out = head_graph(stats[None, :], *zero).value
        assert np.allclose(out[0], [0.6, 0.0, 0.8, 0.0], atol=1e-12)


def test_degenerate_projection_raises():
    head = (np.zeros((2, 2)), np.zeros(2), np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(NumericalDegeneracyError):
        head_graph(np.ones((1, 2)), *head)


def test_head_jacobian_matches_finite_differences():
    rng = np.random.default_rng(9)
    head = init_group("proj_low", 0, 3, 5, rng)
    stats = np.abs(rng.normal(size=(2, 3))) + 0.1
    params = [ad.parameter(p) for p in head.values()]
    probe = ad.lift(rng.normal(size=(2, 5)))

    def scalar():
        return tsum(mul(head_graph(ad.lift(stats), *params), probe))

    root = scalar()
    ad.backward(root)
    step = 1e-5
    for p in params:
        flat = p.value.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            fp = scalar().item()
            flat[i] = keep - step
            fm = scalar().item()
            flat[i] = keep
            num = (fp - fm) / (2 * step)
            assert abs(grad[i] - num) / max(abs(grad[i]), abs(num), 1e-5) < 1e-4
