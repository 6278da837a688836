"""Tests for discretized noise and chaos samples.

Gaussian moment oracles: E(xi^2-1)^2 = 2, E(xi^2-1)^4 = 60.
"""
import numpy as np
import pytest

from fracwiener import TimeGrid
from fracwiener.chaos import DiscreteIsonormal, double_wiener_integral, moment_ratio
from fracwiener.rng import map_path_blocks, worker_threads

CHAOS2_RATIO = 60.0**0.25 / 2.0**0.5  # (E(xi^2-1)^4)^(1/4) / (E(xi^2-1)^2)^(1/2)
GAUSS_RATIO = 3.0**0.25


def _increments(iso, n_paths):
    # the noise of n_paths paths, block by block on the pool's keys
    return map_path_blocks(lambda b, sl: iso.increment_block(b, sl.stop - sl.start), n_paths)


class TestDiscreteIsonormal:
    def test_window_geometry(self):
        iso = DiscreteIsonormal.for_window(2.0, 128, seed=1)
        assert iso.grid.t0 == pytest.approx(-20.0)
        assert iso.grid.t_end == pytest.approx(2.0)
        assert iso.n_cells == 128
        with pytest.raises(ValueError):
            DiscreteIsonormal.for_window(-1.0, 16, seed=1)

    def test_deterministic_and_stream_separated(self):
        iso = DiscreteIsonormal.for_window(1.0, 32, seed=11)
        again = DiscreteIsonormal.for_window(1.0, 32, seed=11)
        assert np.array_equal(_increments(iso, 500), _increments(again, 500))
        other = DiscreteIsonormal.for_window(1.0, 32, seed=11, stream=1)
        assert not np.array_equal(_increments(iso, 500), _increments(other, 500))

    def test_thread_count_does_not_change_draws(self):
        iso = DiscreteIsonormal.for_window(1.0, 16, seed=2)
        a = _increments(iso, 10_000)
        with worker_threads(7):
            b = _increments(iso, 10_000)
        assert np.array_equal(a, b)

    def test_inner_product_covariance(self):
        iso = DiscreteIsonormal.for_window(1.0, 96, seed=1234)
        y = iso.grid.cell_midpoints
        v1 = np.sin(y)
        v2 = np.exp(-np.abs(y))
        n = 150_000
        s1 = iso.first_order(v1, n)
        with worker_threads(4):
            s2 = iso.first_order(v2, n)
        target = float(v1 @ v2) * iso.grid.dt
        prod = s1 * s2
        se = np.std(prod, ddof=1) / np.sqrt(n)
        assert abs(np.mean(prod) - target) < 4 * se

    def test_first_order_sample(self):
        iso = DiscreteIsonormal.for_window(1.0, 48, seed=5)
        sample = iso.first_order(np.ones(48), 50_000)
        assert sample.shape == (50_000,)
        se = np.std(sample, ddof=1) / np.sqrt(sample.size)
        assert abs(np.mean(sample)) < 4 * se

    def test_weight_coercion(self):
        iso = DiscreteIsonormal.for_window(1.0, 24, seed=5)
        a = iso.first_order([1] * 24, 100)
        b = iso.first_order(np.ones(24), 100)
        assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            iso.first_order(np.ones(23), 10)


def _unit_indicator_iso(n_cells=256, seed=99):
    # window exactly [0, 1]; every cell carries kernel weight
    iso = DiscreteIsonormal(TimeGrid(0.0, 1.0 / n_cells, n_cells), seed=seed)
    e = np.ones(n_cells)
    e /= np.sqrt(e @ e * iso.grid.dt)
    return iso, e


class TestDoubleWienerIntegral:
    def test_zero_kernel(self):
        iso = DiscreteIsonormal.for_window(1.0, 16, seed=1)
        sample = double_wiener_integral(np.zeros((16, 16)), iso, 1000)
        assert sample.shape == (1000,)
        assert np.all(sample == 0.0)

    def test_rank_one_variance(self):
        iso, e = _unit_indicator_iso()
        with worker_threads(4):
            sample = double_wiener_integral(np.outer(e, e), iso, 120_000)
        var = np.var(sample, ddof=1)
        se = np.sqrt(np.var(sample**2, ddof=1) / sample.size)
        assert abs(var - 2.0) < 3 * se + 2.0 / iso.n_cells
        assert abs(np.mean(sample)) < 4 * np.sqrt(var / sample.size)

    def test_rank_one_distribution_ratio(self):
        iso, e = _unit_indicator_iso(seed=101)
        with worker_threads(4):
            sample = double_wiener_integral(np.outer(e, e), iso, 120_000)
        assert moment_ratio(sample, 4, 2) == pytest.approx(CHAOS2_RATIO, rel=0.02)

    def test_brute_force_variance_oracle(self):
        iso = DiscreteIsonormal.for_window(1.0, 16, seed=3)
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(16, 16))
        mat = 0.5 * (mat + mat.T)
        dy = iso.grid.dt
        brute = 2.0 * sum(
            mat[i, j] ** 2 * dy * dy for i in range(16) for j in range(16) if i != j
        )
        with worker_threads(4):
            sample = double_wiener_integral(mat, iso, 400_000)
        se = np.sqrt(np.var(sample**2, ddof=1) / sample.size)
        assert abs(np.var(sample, ddof=1) - brute) < 3 * se

    def test_uncorrelated_with_first_order(self):
        iso, e = _unit_indicator_iso(seed=7)
        n = 100_000
        with worker_threads(4):
            second = double_wiener_integral(np.outer(e, e), iso, n)
            first = iso.first_order(np.cos(iso.grid.cell_midpoints), n)
        corr = np.corrcoef(first, second)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n)

    def test_validation(self):
        iso = DiscreteIsonormal.for_window(1.0, 8, seed=4)
        with pytest.raises(ValueError):
            double_wiener_integral(np.zeros((4, 4)), iso, 10)
        bad = np.full((8, 8), np.nan)
        with pytest.raises(ValueError):
            double_wiener_integral(bad, iso, 10)

    def test_symmetrization_flag(self):
        # symmetrizing is the caller's step: a non-symmetric kernel is
        # refused, and asymmetry at rounding level is accepted as given
        iso = DiscreteIsonormal.for_window(1.0, 8, seed=4)
        mat = np.random.default_rng(1).normal(size=(8, 8))
        with pytest.raises(ValueError, match="symmetric"):
            double_wiener_integral(mat, iso, 10)
        sym = 0.5 * (mat + mat.T)
        near = sym + np.triu(np.full((8, 8), 1e-14), 1)
        a = double_wiener_integral(sym, iso, 2000)
        b = double_wiener_integral(near, iso, 2000)
        assert np.allclose(a, b, rtol=0.0, atol=1e-11)

    def test_thread_invariance(self):
        iso, e = _unit_indicator_iso(n_cells=64, seed=8)
        a = double_wiener_integral(np.outer(e, e), iso, 9000)
        with worker_threads(8):
            b = double_wiener_integral(np.outer(e, e), iso, 9000)
        assert np.array_equal(a, b)


class TestMomentRatio:
    def test_constant_sample(self):
        assert moment_ratio(np.full(50, 3.7), 4, 2) == pytest.approx(1.0, rel=1e-13)

    def test_gaussian_fourth_to_second(self):
        rng = np.random.default_rng(314)
        xi = rng.standard_normal(200_000)
        assert moment_ratio(xi, 4, 2) == pytest.approx(GAUSS_RATIO, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            moment_ratio(np.ones(4), 0.0, 2.0)
        with pytest.raises(ValueError):
            moment_ratio(np.ones(4), 2.0, -1.0)
        with pytest.raises(ValueError):
            moment_ratio(np.array([]), 2.0, 4.0)
        with pytest.raises(ValueError, match="degenerate"):
            moment_ratio(np.zeros(10), 4.0, 2.0)

    def test_hypercontractive_bound_first_chaos(self):
        # affine functions of one Gaussian: ratio never exceeds 3^(1/4)
        iso = DiscreteIsonormal.for_window(1.0, 64, seed=21)
        n = 100_000
        base = iso.first_order(np.ones(64), n)
        rng = np.random.default_rng(2)
        for _ in range(100):
            a0, a1 = rng.normal(size=2)
            if abs(a0) + abs(a1) < 1e-6:
                continue
            ratio = moment_ratio(a0 + a1 * base, 4, 2)
            assert ratio <= GAUSS_RATIO * 1.05

    def test_hypercontractive_bound_second_chaos(self):
        # mixed chaos <= 2 combinations stay below the order-2 constant 3
        iso, e = _unit_indicator_iso(n_cells=128, seed=22)
        n = 100_000
        with worker_threads(4):
            first = iso.first_order(e, n)
            second = double_wiener_integral(np.outer(e, e), iso, n)
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.normal(size=3)
            if np.abs(a).sum() < 1e-6:
                continue
            combo = a[0] + a[1] * first + a[2] * second
            assert moment_ratio(combo, 4, 2) <= 3.0
