"""Tests for the spectral SPDE solver and the boundary-noise machinery."""
import dataclasses
import json
import math
import re
import sys
import threading
import tracemalloc
from contextlib import closing
from functools import partial

import numpy as np
import pytest

from fracwiener import processes, spde
from fracwiener.grids import StepFunction, TimeGrid
from fracwiener.integrals import _dyadic_sum, gamma_norm_lp
from fracwiener.processes import FracParams, simulate_cylindrical, simulate_fbm
from fracwiener.rng import BLOCK_PATHS, path_blocks, worker_threads
from fracwiener.sobolev import _dyadic_shell, dh_norm_exponential, integrand_inner
from fracwiener.spde import (
    NeumannKernelConfig,
    SpectralModel,
    assemble_kernel_field,
    boundary_solution_check,
    existence_report,
    mild_summary,
    mode_norm,
    neumann_boundary_integral,
    neumann_heat_kernel,
    semigroup_smoothing_exponent,
)
from fracwiener.spde import (
    _SHELL_START,
    _boundary_kernel_step,
    _exp_kernel_step,
    _image_count,
    _mode_step_norms,
    _surrogate_kernel_sq,
)

L_PI = math.pi


def covariance_norm(f, hurst):
    """The integrand norm by the covariance route, the oracle of the graded and closed-form norms."""
    return math.sqrt(max(integrand_inner(f, f, hurst), 0.0))


@pytest.fixture(scope="module")
def laplace8():
    return SpectralModel(L_PI, 1, 8)


class TestSpectralModel:
    def test_dirichlet_eigenvalues_m1(self):
        mod = SpectralModel(L_PI, 1, 6)
        assert np.allclose(mod.eigenvalues, np.arange(1, 7) ** 2, rtol=1e-14)

    def test_spectral_power_m2(self):
        mod = SpectralModel(L_PI, 2, 6)
        assert np.allclose(mod.eigenvalues, np.arange(1, 7) ** 4, rtol=1e-14)

    def test_eigenvalues_increasing(self):
        mod = SpectralModel(2.5, 3, 40)
        assert np.all(np.diff(mod.eigenvalues) > 0)

    def test_gram_identity_under_quadrature(self, laplace8):
        xs, ws = laplace8.spatial_quadrature(512)
        modes = laplace8.eigenfunctions(xs)
        gram = (modes * ws[:, None]).T @ modes
        assert np.abs(gram - np.eye(8)).max() < 1e-6

    def test_modes_orthonormal_at_live_resolutions(self):
        # the midpoint rule keeps K < n_cells sine modes orthonormal to
        # rounding; existence_report (4 K cells) and the p != 2 Hölder fit
        # (64 cells) read spatial norms through it
        for n_cells, k in ((64, 12), (64, 63), (4 * 128, 128)):
            mod = SpectralModel(2.5, 1, k)
            xs, ws = mod.spatial_quadrature(n_cells)
            modes = mod.eigenfunctions(xs)
            gram = (modes * ws[:, None]).T @ modes
            assert np.abs(gram - np.eye(k)).max() < 1e-12

    def test_truncated_keeps_everything_else(self, laplace8):
        small = laplace8.truncated(3)
        assert small.truncation == 3
        assert small.length == laplace8.length
        assert small.order == laplace8.order

    def test_fractional_weights(self):
        # at L = pi the eigenvalues are k^2, so the weights at alpha = 1/2 are k
        mod = SpectralModel(L_PI, 1, 4)
        assert np.allclose(mod.fractional_weights(0.5), np.arange(1, 5), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(length=0.0, m=1, truncation=4),
            dict(length=1.0, m=0, truncation=4),
            dict(length=1.0, m=1, truncation=0),
            dict(length=1.0, m=1, truncation=4, p=0.5),
            dict(length=1.0, m=1.5, truncation=4),
            dict(length=1.0, m=1, truncation=2.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SpectralModel(**kwargs)

    @pytest.mark.parametrize("length", [1e300, 1e-200])
    def test_spectrum_out_of_range_refused(self, length):
        # 1e300: the bottom eigenvalue underflows to 0; 1e-200: the top one overflows
        with pytest.raises(ValueError, match=re.escape(f"at length {length:g}, m = 1")):
            SpectralModel(length, 1, 4)

    def test_existence_threshold(self):
        assert SpectralModel(L_PI, 1, 4).existence_threshold(0.4) == 0.4 - 0.25
        assert SpectralModel(L_PI, 2, 4).existence_threshold(0.45) == 0.45 - 0.125


class TestModeNorm:
    def test_uncorrelated_case_closed_form(self, laplace8):
        for k, t in ((1, 2.0), (3, 1.0), (5, 0.5)):
            lam = float(k * k)
            want = math.sqrt((1.0 - math.exp(-2.0 * lam * t)) / (2.0 * lam))
            assert mode_norm(laplace8, k, t, 0.5) == pytest.approx(want, rel=1e-12)

    def test_soft_mode_limit_is_isometry_anchor(self):
        # lam_1 = (pi/L)^2 -> 0 turns the kernel into an indicator
        mod = SpectralModel(1e6, 1, 1)
        for h in (0.3, 0.6, 0.9):
            assert mode_norm(mod, 1, 1.5, h) == pytest.approx(1.5**h, rel=1e-6)

    def test_vanishing_rate_is_indicator(self):
        # lam_1 ~ 1e-199: lam^{-2H} gamma(2H+1, lam t) would overflow on the way to t^{2H}
        mod = SpectralModel(1e100, 1, 4)
        assert mode_norm(mod, 1, 2.0, 0.9) == pytest.approx(2.0**0.9, rel=1e-12)

    def test_dual_method_agreement(self, laplace8):
        # singular-kernel bilinear form on the graded step discretization
        for k in (1, 2, 4, 8):
            lam = float(k * k)
            direct = covariance_norm(_exp_kernel_step(lam, 1.0), 0.75)
            assert mode_norm(laplace8, k, 1.0, 0.75) == pytest.approx(direct, rel=0.01)

    def test_covariance_route_at_tiny_horizon(self):
        # lam t0 ~ 1e-19: the cell masses must not cancel to 0
        lam = float(SpectralModel(1.0, 1, 1).eigenvalues[0])
        step = covariance_norm(_exp_kernel_step(lam, 1e-20), 0.4)
        assert step == pytest.approx(dh_norm_exponential(lam, 1e-20, 0.4), rel=1e-6)

    def test_fractional_weight_is_scalar_factor(self, laplace8):
        base = mode_norm(laplace8, 3, 1.0, 0.6)
        assert mode_norm(laplace8, 3, 1.0, 0.6, alpha=0.5) == pytest.approx(3.0 * base, rel=1e-12)

    def test_validation(self, laplace8):
        with pytest.raises(ValueError, match="out of range"):
            mode_norm(laplace8, 9, 1.0, 0.5)
        with pytest.raises(ValueError, match="positive"):
            mode_norm(laplace8, 1, 0.0, 0.5)


class TestExistenceReport:
    def test_subcritical_m1(self):
        mod = SpectralModel(L_PI, 1, 16)
        rep = existence_report(mod, 0.4, 0.0, 1.0)
        assert rep.finite
        assert mod.existence_threshold(0.4) == pytest.approx(0.15)
        assert rep.gamma_norm_lp_value == pytest.approx(0.948752, rel=1e-5)
        # block masses decay for a convergent mode series
        assert rep.per_mode_tail[-1] < rep.per_mode_tail[0]

    def test_supercritical_m1(self):
        mod = SpectralModel(L_PI, 1, 16)
        rep = existence_report(mod, 0.4, 0.2, 1.0)
        assert not rep.finite
        assert rep.per_mode_tail[-1] > rep.per_mode_tail[0]

    def test_fourth_order_rough_driver(self):
        mod = SpectralModel(L_PI, 2, 16)
        assert existence_report(mod, 0.3, 0.0, 1.0).finite

    @pytest.mark.parametrize("hurst", [0.35, 0.4, 0.45])
    def test_verdict_flips_at_quarter_offset(self, hurst):
        mod = SpectralModel(L_PI, 1, 16)
        thr = hurst - 0.25
        assert existence_report(mod, hurst, thr - 0.02, 1.0).finite
        assert not existence_report(mod, hurst, thr + 0.02, 1.0).finite

    def test_monotone_in_alpha_and_hurst(self):
        mod = SpectralModel(L_PI, 1, 16)
        hs = (0.3, 0.35, 0.4, 0.45)
        alphas = (0.0, 0.06, 0.12, 0.18)
        verdicts = {
            (h, a): existence_report(mod, h, a, 1.0).finite for h in hs for a in alphas
        }
        for h in hs:
            for lo, hi in zip(alphas, alphas[1:]):
                if verdicts[(h, hi)]:
                    assert verdicts[(h, lo)]
        for a in alphas:
            for lo, hi in zip(hs, hs[1:]):
                if verdicts[(lo, a)]:
                    assert verdicts[(hi, a)]

    def test_matches_composed_kernel_field(self):
        """existence_report (threshold-sweep, c07) against the assemble_kernel_field oracle."""
        mod = SpectralModel(L_PI, 1, 6)
        field = assemble_kernel_field(mod, 0.4, 0.0, 1.0)
        rep = existence_report(mod, 0.4, 0.0, 1.0, doublings=0)
        assert gamma_norm_lp(field) == pytest.approx(rep.gamma_norm_lp_value, rel=1e-10)
        # weights applied to norms cached at another alpha
        existence_report(mod, 0.35, 0.3, 1.0, doublings=0)
        field = assemble_kernel_field(mod, 0.35, 0.1, 1.0)
        rep = existence_report(mod, 0.35, 0.1, 1.0, doublings=0)
        assert gamma_norm_lp(field) == pytest.approx(rep.gamma_norm_lp_value, rel=1e-10)
        cached = _mode_step_norms(mod.length, mod.m, 0.35, 1.0, mod.truncation)
        with pytest.raises(ValueError):
            cached[0] = 0.0

    def test_horizon_validation(self):
        mod = SpectralModel(L_PI, 1, 4)
        with pytest.raises(ValueError, match="positive"):
            existence_report(mod, 0.4, 0.0, 0.0)


class TestGradedNorms:
    """``_graded_norms`` against the covariance route ``integrand_inner`` on the same kernels."""

    @pytest.mark.parametrize("t0", [1e-20, 1.0, 100.0])
    @pytest.mark.parametrize("i, hurst", list(enumerate([0.1, 0.4, 0.5, 0.75, 0.9])))
    def test_mode_kernels(self, i, hurst, t0):
        # the i-th H checks the modes k = i mod 5, so the five H cover all 512
        # modes of each geometry and horizon; every mode at every H takes 6 s
        for m in (1, 2):
            for length in (1.0, L_PI):
                lams = SpectralModel(length, m, 512).eigenvalues
                got = _mode_step_norms(length, m, hurst, t0, 512)[i::5]
                want = [
                    covariance_norm(_exp_kernel_step(lam, t0), hurst)
                    for lam in lams[i::5]
                ]
                assert got == pytest.approx(want, rel=1e-12)

    @staticmethod
    def _check_boundary(cfg, xs, rel):
        rec = boundary_solution_check(cfg, 4, grid_steps=8, x_nodes=xs)
        steps = [_boundary_kernel_step(cfg, x, y) for x in xs for y in (0.0, cfg.length)]
        values = np.array([s.values for s in steps])
        got = spde._graded_norms([s.breakpoints[1] for s in steps], cfg.t0, values, cfg.hurst)
        want = np.array([covariance_norm(s, cfg.hurst) for s in steps])
        assert got == pytest.approx(want, rel=rel)
        pairs = np.sum(want.reshape(-1, 2) ** 2, axis=1)
        assert rec.expected_profile == pytest.approx(pairs, rel=rel)

    @pytest.mark.parametrize("hurst", [0.5, 0.75, 0.9])
    def test_boundary_kernels_at_default_nodes(self, hurst):
        self._check_boundary(NeumannKernelConfig(1.0, 1.0, hurst, 2.0), np.arange(1, 16) / 16.0, 1e-12)

    @pytest.mark.parametrize("hurst", [0.5, 0.6, 0.75, 0.9])
    def test_boundary_kernels_near_a_wall(self, hurst):
        # floor / t0 is about 4e-16 at x = 1e-6 and t0 = 50.  There the routes
        # differ by up to 1.1e-11 (H = 0.99), and it is the covariance route that
        # is off: against a 50-digit mpmath evaluation of the same double sum
        # (x = 1e-6 and 1e-3, H = 0.6 and 0.75) the graded route is within 3e-16,
        # the covariance route 7e-15 to 6.7e-12 off (next test)
        xs = [1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6]
        self._check_boundary(NeumannKernelConfig(1.0, 50.0, hurst, 2.0), xs, 1e-10)

    def test_near_wall_kernel_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        cfg = NeumannKernelConfig(1.0, 50.0, 0.6, 2.0)
        step = _boundary_kernel_step(cfg, 1e-6, 0.0)
        with mp.workdps(30):
            e = [mp.mpf(float(x)) for x in step.breakpoints[1:]]
            v = [mp.mpf(float(x)) for x in step.values] + [mp.mpf(0)]
            d = [a - b for a, b in zip(v, v[1:])]
            h2 = 2 * mp.mpf(cfg.hurst)
            p = [x**h2 for x in e]
            sq = mp.fsum(
                d[k] * d[l] * (p[k] + p[l] - abs(e[k] - e[l]) ** h2)
                for k in range(len(e))
                for l in range(len(e))
            ) / 2
            want = float(mp.sqrt(sq))
        got = spde._graded_norms([step.breakpoints[1]], cfg.t0, step.values[None], cfg.hurst)[0]
        assert got == pytest.approx(want, rel=1e-14)


def _dense_existence(mod, hurst, alpha, t0, doublings):
    """Unit-scale block masses and verdict of existence_report from a dense sine matrix.

    The reference sum: ``sum_k a_k phi_k(x_i)^2`` with the sine modes
    evaluated at every node, the route the cosine transform replaced.
    """
    k_max = mod.truncation * 2**doublings
    big = mod.truncated(k_max)
    base = _mode_step_norms(mod.length, mod.m, hurst, t0, k_max)
    norms = big.fractional_weights(alpha) * base
    xs, ws = mod.spatial_quadrature(4 * k_max)
    modes = big.eigenfunctions(xs)
    mass = []
    for j in range(doublings + 1):
        k_j = mod.truncation * 2**j
        node_sq = (modes[:, :k_j] ** 2) @ (norms[:k_j] ** 2)
        mass.append(float(np.sum(ws * node_sq ** (mod.p / 2.0))))
    incs = np.diff(mass)
    ratios = [incs[i] / incs[i - 1] for i in range(1, len(incs)) if incs[i - 1] > 0]
    if len(ratios) >= 2:
        diverged = 2.0 * ratios[-1] - ratios[-2] >= 0.96
    else:
        diverged = bool(ratios) and ratios[-1] >= 0.96
    return mass, incs, not diverged


class TestExistenceReportDenseOracle:
    """The cosine-transform sums of existence_report against the sine-matrix sums."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    # truncation 12 gives 48 2^doublings cells, a transform length that is no power of
    # two; the odd truncation 13 gives 52 2^doublings, with the prime factor 13
    @pytest.mark.parametrize("truncation", [8, 12, 13, 64])
    @pytest.mark.parametrize("doublings", [0, 1, 2, 3])
    def test_matches_sine_matrix(self, p, truncation, doublings):
        mod = SpectralModel(L_PI, 1, truncation, p=p)
        rep = existence_report(mod, 0.4, 0.1, 1.0, doublings=doublings)
        mass, incs, finite = _dense_existence(mod, 0.4, 0.1, 1.0, doublings)
        assert rep.gamma_norm_lp_value == pytest.approx(mass[0] ** (1.0 / p), rel=1e-12)
        assert rep.per_mode_tail == pytest.approx(tuple(incs), rel=1e-12)
        assert rep.finite == finite

    def test_builds_no_sine_matrix(self, monkeypatch):
        def refuse(self, x):
            raise AssertionError("dense sine matrix built")

        mod = SpectralModel(L_PI, 1, 8, p=1.5)
        monkeypatch.setattr(SpectralModel, "eigenfunctions", refuse)
        existence_report(mod, 0.4, 0.1, 1.0)
        semigroup_smoothing_exponent(mod, 0.1)

    @pytest.mark.parametrize("m,p", [(1, 1.5), (1, 2.0), (2, 1.5), (2, 2.0)])
    def test_same_verdicts_over_grid(self, m, p):
        mod = SpectralModel(L_PI, m, 16, p=p)
        for h in (0.3, 0.35, 0.4, 0.45):
            for a in np.linspace(0.0, 0.3, 13):
                rep = existence_report(mod, h, a, 1.0)
                assert rep.finite == _dense_existence(mod, h, a, 1.0, 3)[2]


class TestSmoothingExponent:
    @pytest.mark.parametrize(
        "m,alpha,want",
        [(1, 0.0, -0.25), (1, 0.5, -0.75), (2, 0.0, -0.125)],
    )
    def test_decay_exponents(self, m, alpha, want):
        mod = SpectralModel(L_PI, m, 256)
        assert semigroup_smoothing_exponent(mod, alpha) == pytest.approx(want, abs=0.05)

    def test_negative_alpha_rejected(self, laplace8):
        with pytest.raises(ValueError, match="nonnegative"):
            semigroup_smoothing_exponent(laplace8, -0.1)

    @pytest.mark.parametrize("m,p,alpha", [(1, 1.5, 0.0), (1, 3.0, 0.5), (2, 1.0, 0.2)])
    def test_cosine_sums_match_sine_matrix(self, m, p, alpha):
        # p != 2: the spatial L^p norms against sums over a dense sine matrix
        mod = SpectralModel(L_PI, m, 64, p=p)
        lams, weights = mod.eigenvalues, mod.fractional_weights(alpha)
        us = np.geomspace(2.0 / lams[-1], 200.0 / lams[-1], 17)
        xs, ws = mod.spatial_quadrature(256)
        modes_sq = mod.eigenfunctions(xs) ** 2
        vals = [
            float(np.sum(ws * (modes_sq @ (weights * np.exp(-lams * u)) ** 2) ** (p / 2.0)))
            ** (1.0 / p)
            for u in us
        ]
        want = np.polyfit(np.log(us), np.log(vals), 1)[0]
        assert semigroup_smoothing_exponent(mod, alpha) == pytest.approx(want, rel=1e-12)


GRID512 = TimeGrid(0.0, 1.0 / 512, 512)


def _node_paths(model, params, grid, n_paths, alpha=0.0, seed=0, n_noise_cells=512):
    """``coeffs[path, mode, node]`` of the mild solve: the ``_mode_paths`` draws, stacked."""
    coeffs = np.zeros((n_paths, model.truncation, grid.n_steps + 1))
    modes = spde._mode_paths(model, params, grid, n_paths, alpha, seed, n_noise_cells)
    with closing(modes):
        for k, steps in modes:
            coeffs[:, k, 1:] = steps.T
    return coeffs


def _fold_slope(model, grid, coeffs):
    """The Hölder slope of stacked node paths, fed through the fold of ``mild_summary``."""
    fold = spde._LagFold(model, grid, coeffs.shape[0])
    for k in range(coeffs.shape[1]):
        fold.add(k, coeffs[:, k, 1:].T)
    return fold.slope()


class TestModePaths:
    def test_refuses_supercritical_alpha(self):
        mod = SpectralModel(L_PI, 1, 16)
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        with pytest.raises(ValueError, match="existence threshold"):
            _node_paths(mod, FracParams.fbm(0.4), grid, 10, alpha=0.2)

    def test_admits_alpha_just_below_threshold(self):
        # the closed form H - 1/(4m) = 0.15 admits 0.145; the K-doubling
        # detector cannot tell this alpha from a divergent one
        mod = SpectralModel(L_PI, 1, 16)
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        coeffs = _node_paths(mod, FracParams.fbm(0.4), grid, 10, alpha=0.145)
        assert np.all(np.isfinite(coeffs))

    def test_single_mode_variance_anchor(self):
        mod = SpectralModel(L_PI, 1, 1)
        coeffs = _node_paths(mod, FracParams.fbm(0.5), GRID512, 20000, seed=11)
        y_sq = coeffs[:, 0, -1] ** 2
        want = (1.0 - math.exp(-2.0)) / 2.0
        se = np.std(y_sq, ddof=1) / math.sqrt(y_sq.size)
        assert abs(np.mean(y_sq) - want) < 3.0 * se

    def test_discrete_variance_refinement_under_percent(self):
        # the left-point rule has an exact second moment; halving the step
        # must move it by far less than a percent of the continuum value
        lam, t = 1.0, 1.0
        def discrete_var(n):
            dt = t / n
            f = math.exp(-2.0 * lam * dt)
            return dt * f * (1.0 - math.exp(-2.0 * lam * t)) / (1.0 - f)
        coarse, fine = discrete_var(512), discrete_var(1024)
        exact = (1.0 - math.exp(-2.0 * lam * t)) / (2.0 * lam)
        assert abs(fine / coarse - 1.0) < 0.01
        assert abs(coarse / exact - 1.0) < 0.01

    def test_parseval_second_moment(self, laplace8):
        coeffs = _node_paths(laplace8, FracParams.fbm(0.5), GRID512, 4096, seed=12)
        total = np.sum(coeffs[:, :, -1] ** 2, axis=1)
        want = sum(mode_norm(laplace8, k, 1.0, 0.5) ** 2 for k in range(1, 9))
        se = np.std(total, ddof=1) / math.sqrt(total.size)
        assert abs(np.mean(total) - want) < 3.0 * se

    def test_parseval_fractional_driver(self, laplace8):
        coeffs = _node_paths(laplace8, FracParams.fbm(0.75), GRID512, 4096, seed=13)
        total = np.sum(coeffs[:, :, -1] ** 2, axis=1)
        want = sum(mode_norm(laplace8, k, 1.0, 0.75) ** 2 for k in range(1, 9))
        se = np.std(total, ddof=1) / math.sqrt(total.size)
        assert abs(np.mean(total) - want) < 3.0 * se

    def test_modes_uncorrelated(self, laplace8):
        c = _node_paths(laplace8, FracParams.fbm(0.75), GRID512, 4096, seed=13)[:, :, -1]
        rho = np.corrcoef(c.T)[np.triu_indices(8, 1)]
        assert np.abs(rho).max() < 4.0 / math.sqrt(c.shape[0])

    def test_thread_invariance_and_determinism(self):
        # more than one path block, so the worker pool really runs
        mod = SpectralModel(L_PI, 1, 3)
        grid = TimeGrid(0.0, 1.0 / 16, 16)
        n = BLOCK_PATHS + 1
        assert len(list(path_blocks(n))) >= 2
        a = _node_paths(mod, FracParams.fbm(0.6), grid, n, seed=3)
        with worker_threads(4):
            b = _node_paths(mod, FracParams.fbm(0.6), grid, n, seed=3)
        c = _node_paths(mod, FracParams.fbm(0.6), grid, n, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_fractional_weights_applied_exactly(self):
        mod = SpectralModel(L_PI, 1, 16)
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        plain = _node_paths(mod, FracParams.fbm(0.6), grid, 50, seed=9)
        lifted = _node_paths(mod, FracParams.fbm(0.6), grid, 50, seed=9, alpha=0.25)
        ratio = lifted[:, :, 1:] / plain[:, :, 1:]
        assert np.allclose(ratio, mod.eigenvalues[None, :, None] ** 0.25, rtol=1e-12)

    def test_semigroup_decomposition_pathwise(self):
        # restart identity: y(t_{i+j}) = e^{-lam j dt} y(t_i) + fresh convolution,
        # with the increments of the identically seeded driver, which is
        # component k of the cylindrical driver
        mod = SpectralModel(L_PI, 1, 3)
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        coeffs = _node_paths(mod, FracParams.fbm(0.7), grid, 20, seed=6)
        cyl = simulate_cylindrical(FracParams.fbm(0.7), grid, 3, 20, seed=6)
        for k in (1, 3):
            lam = mod.eigenvalues[k - 1]
            drv = simulate_fbm(FracParams.fbm(0.7), grid, 20, 6, stream=k - 1)
            dz = drv.increments
            assert np.array_equal(dz, cyl.components[k - 1].increments)
            fade = math.exp(-lam * grid.dt)
            y = coeffs[:, k - 1, :]
            i, j = 20, 17
            fresh = np.zeros(20)
            for l in range(j):
                fresh = fade * (fresh + dz[:, i + l])
            assert np.allclose(y[:, i + j], fade**j * y[:, i] + fresh, atol=1e-12)

    def test_rosenblatt_driver(self):
        mod = SpectralModel(L_PI, 1, 2)
        grid = TimeGrid(0.0, 0.25, 4)
        n = BLOCK_PATHS + 1
        assert len(list(path_blocks(n))) >= 2
        coeffs = _node_paths(mod, FracParams.rosenblatt(0.7), grid, n, seed=7, n_noise_cells=128)
        assert coeffs.shape == (n, 2, 5)
        assert not coeffs[:, :, 0].any()
        assert np.isfinite(coeffs).all()
        with worker_threads(4):
            again = _node_paths(mod, FracParams.rosenblatt(0.7), grid, n, seed=7, n_noise_cells=128)
        assert np.array_equal(coeffs, again)
        c = coeffs[:, :, -1]
        assert abs(np.corrcoef(c.T)[0, 1]) < 4.0 / math.sqrt(n)

    def test_field_matches_parseval(self, laplace8):
        # the field sum_k c_k phi_k, built from coeffs as the spatial fits do
        c = _node_paths(laplace8, FracParams.fbm(0.5), TimeGrid(0.0, 0.05, 20), 16, seed=5)[:, :, -1]
        xs, ws = laplace8.spatial_quadrature(256)
        field = c @ laplace8.eigenfunctions(xs).T
        quad = (field**2) @ ws
        assert np.allclose(quad, np.sum(c**2, axis=1), rtol=1e-6)

    def test_mode_index_bounds(self, laplace8):
        # mode k sits at coeffs[:, k - 1, :] whatever the truncation, and
        # the time axis holds every node from the zero initial condition on
        grid = TimeGrid(0.0, 0.25, 4)
        coeffs = _node_paths(laplace8, FracParams.fbm(0.5), grid, 4, seed=5)
        assert coeffs.shape == (4, 8, 5)
        assert not coeffs[:, :, 0].any()
        low = _node_paths(laplace8.truncated(3), FracParams.fbm(0.5), grid, 4, seed=5)
        assert np.array_equal(coeffs[:, :3, :], low)


def _summary(model, params, grid, n_paths, alpha=0.0, seed=0, n_noise_cells=512,
             fit_holder=True):
    return mild_summary(model, params, grid, n_paths, alpha, seed=seed,
                        n_noise_cells=n_noise_cells, fit_holder=fit_holder)


class TestMildSummary:
    """mild_summary folds the ``_mode_paths`` draws mode by mode; their stack is its oracle."""

    @pytest.mark.parametrize("family", ["fbm", "rosenblatt"])
    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_matches_stored_ensemble(self, family, alpha, p):
        mod = SpectralModel(L_PI, 1, 6, p=p)
        params = FracParams.fbm(0.75) if family == "fbm" else FracParams.rosenblatt(0.75)
        grid = TimeGrid(0.0, 1.0 / 32, 32)
        coeffs = _node_paths(mod, params, grid, 60, alpha, seed=4, n_noise_cells=64)
        terminal, slope = _summary(mod, params, grid, 60, alpha, seed=4, n_noise_cells=64)
        assert np.array_equal(terminal, coeffs[:, :, -1])
        assert slope == _fold_slope(mod, grid, coeffs)

    def test_no_fit_without_request(self):
        # a grid too short for the fit is fine when no fit is asked for
        grid = TimeGrid(0.0, 0.25, 4)
        terminal, slope = _summary(SpectralModel(L_PI, 1, 3), FracParams.fbm(0.5), grid, 8,
                                   seed=5, fit_holder=False)
        assert slope is None
        coeffs = _node_paths(SpectralModel(L_PI, 1, 3), FracParams.fbm(0.5), grid, 8, seed=5)
        assert np.array_equal(terminal, coeffs[:, :, -1])

    def test_short_grid_rejected(self, laplace8):
        with pytest.raises(ValueError, match="lag"):
            _summary(laplace8, FracParams.fbm(0.5), TimeGrid(0.0, 0.25, 4), 4, seed=5)

    def test_no_paths_rejected(self, laplace8):
        with pytest.raises(ValueError, match="at least one path"):
            _summary(laplace8, FracParams.fbm(0.5), TimeGrid(0.0, 1.0 / 64, 64), 0)

    def test_refuses_supercritical_alpha(self):
        mod = SpectralModel(L_PI, 1, 16)
        with pytest.raises(ValueError, match="existence threshold"):
            _summary(mod, FracParams.fbm(0.4), TimeGrid(0.0, 1.0 / 64, 64), 10, alpha=0.2)

    def test_runs_no_existence_detector(self, monkeypatch):
        # admission is the closed-form threshold; the detector belongs to threshold-sweep
        def refuse(*args, **kwargs):
            raise AssertionError("existence_report called on the mild-solve path")

        monkeypatch.setattr(spde, "existence_report", refuse)
        terminal, _ = _summary(SpectralModel(L_PI, 1, 4), FracParams.fbm(0.5),
                               TimeGrid(0.0, 1.0 / 16, 16), 8, alpha=0.2, seed=1)
        assert terminal.shape == (8, 4)

    def test_thread_invariance(self):
        mod = SpectralModel(L_PI, 1, 3)
        grid = TimeGrid(0.0, 1.0 / 16, 16)
        n = BLOCK_PATHS + 1
        assert len(list(path_blocks(n))) >= 2
        a, slope_a = _summary(mod, FracParams.fbm(0.6), grid, n, seed=3)
        with worker_threads(2):
            b, slope_b = _summary(mod, FracParams.fbm(0.6), grid, n, seed=3)
        assert np.array_equal(a, b)
        assert slope_a == slope_b

    def test_memory_below_half_the_coefficient_array(self):
        # p = 2 keeps one sum per lag; p != 2 keeps half of every path by design
        mod = SpectralModel(L_PI, 1, 64)
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        n_paths = 500
        full = n_paths * mod.truncation * (grid.n_steps + 1) * 8
        tracemalloc.start()
        try:
            _summary(mod, FracParams.fbm(0.4), grid, n_paths, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full / 2


class TestModePool:
    """The modes of a mild solve run on the worker pool, one per task, and fold in mode order."""

    @pytest.mark.parametrize(
        "family, n_modes, n_paths",
        [("fbm", 5, 300), ("fbm", 5, BLOCK_PATHS + 1), ("rosenblatt", 3, 300)],
        ids=["fbm-1-block", "fbm-2-blocks", "rosenblatt"],
    )
    def test_same_bytes_at_any_worker_count(self, family, n_modes, n_paths):
        # K = 5 is no multiple of 2 or 3 workers
        mod = SpectralModel(L_PI, 1, n_modes)
        params = FracParams.fbm(0.6) if family == "fbm" else FracParams.rosenblatt(0.7)
        grid = TimeGrid(0.0, 1.0 / 32, 32)
        runs = []
        for workers in (1, 2, 3):
            with worker_threads(workers):
                terminal, slope = _summary(mod, params, grid, n_paths, seed=3, n_noise_cells=64)
                coeffs = _node_paths(mod, params, grid, n_paths, seed=3, n_noise_cells=64)
            runs.append((terminal, slope, coeffs))
        terminal, slope, coeffs = runs[0]
        assert np.array_equal(terminal, coeffs[:, :, -1])
        for other_terminal, other_slope, other_coeffs in runs[1:]:
            assert np.array_equal(other_terminal, terminal)
            assert other_slope == slope
            assert np.array_equal(other_coeffs, coeffs)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_rosenblatt_solve_builds_the_operator_once(self, monkeypatch, workers):
        # only the latent noise of the second-chaos operator depends on the mode's
        # stream; 4 workers on a short switch interval press on the build lock
        calls = []
        factor = processes._low_rank_factor

        def counted(gbar, dx):
            calls.append(gbar.shape)
            return factor(gbar, dx)

        monkeypatch.setattr(processes, "_low_rank_factor", counted)
        processes._operator_parts.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with worker_threads(workers):
                _summary(SpectralModel(L_PI, 1, 4), FracParams.rosenblatt(0.7),
                         TimeGrid(0.0, 1.0 / 16, 16), 50, seed=2, n_noise_cells=64)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1

    def _driver_failing_at(self, monkeypatch, failing):
        drawn = []
        driver = spde.simulate_driver

        def draw(params, grid, n_paths, seed, stream, n_noise_cells):
            drawn.append(stream)
            if stream == failing:
                raise RuntimeError(f"mode {stream} failed")
            return driver(params, grid, n_paths, seed, stream, n_noise_cells)

        monkeypatch.setattr(spde, "simulate_driver", draw)
        return drawn

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_mode_surfaces_and_leaves_no_thread(self, monkeypatch, workers):
        drawn = self._driver_failing_at(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="mode 2 failed"), worker_threads(workers):
            _summary(SpectralModel(L_PI, 1, 12), FracParams.fbm(0.6), TimeGrid(0.0, 1.0 / 16, 16),
                     40, seed=1)
        assert threading.active_count() == before
        # no mode starts after the failing one is consumed, beyond those in flight
        assert max(drawn) <= 2 + workers

    def test_failing_consumer_leaves_no_thread(self, monkeypatch):
        add = spde._LagFold.add

        def add_until_mode_1(fold, k, steps):
            if k == 1:
                raise RuntimeError("fold failed")
            add(fold, k, steps)

        monkeypatch.setattr(spde._LagFold, "add", add_until_mode_1)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="fold failed") as caught, worker_threads(2):
            _summary(SpectralModel(L_PI, 1, 12), FracParams.fbm(0.6), TimeGrid(0.0, 1.0 / 16, 16),
                     40, seed=1)
        # the held traceback keeps mild_summary's frame, and with it the mode
        # iterator, alive: only closing it there stops the pool
        assert caught.traceback
        assert threading.active_count() == before

    def test_early_stop_cancels_pending_modes(self, monkeypatch):
        drawn = self._driver_failing_at(monkeypatch, None)
        before = threading.active_count()
        mod, grid = SpectralModel(L_PI, 1, 12), TimeGrid(0.0, 1.0 / 16, 16)
        with worker_threads(2):
            modes = spde._mode_paths(mod, FracParams.fbm(0.6), grid, 40, 0.0, 1, 64)
            with closing(modes):
                for k, _ in modes:
                    if k == 1:
                        break
        assert threading.active_count() == before
        assert max(drawn) <= 3


class TestHolderEstimate:
    def test_second_order_slope_above_floor(self):
        mod = SpectralModel(L_PI, 1, 64)
        grid = TimeGrid(0.0, 1.0 / 256, 256)
        _, slope = _summary(mod, FracParams.fbm(0.4), grid, 2000, seed=21)
        # truncation can only steepen the small-lag decay, so the continuum
        # exponent H - 1/(4m) acts as a floor
        assert slope > 0.15 - 0.05
        assert slope < 0.45

    def test_fourth_order_slope_above_floor(self):
        mod = SpectralModel(L_PI, 2, 64)
        grid = TimeGrid(0.0, 1.0 / 256, 256)
        _, slope = _summary(mod, FracParams.fbm(0.45), grid, 2000, seed=22)
        assert slope > 0.45 - 0.125 - 0.05
        assert slope < 0.5

    @pytest.mark.parametrize("k", [63, 64, 128])
    def test_lp_route_resolves_every_mode(self, k):
        # p = 2 sums the modes by Parseval; p just above 2 integrates the field
        # on the midpoint rule, which must keep all K sine modes orthonormal
        mod = SpectralModel(L_PI, 1, k)
        grid = TimeGrid(0.0, 1.0 / 4096, 64)
        coeffs = _node_paths(mod, FracParams.fbm(0.4), grid, 200, seed=1)
        slope = _fold_slope(mod, grid, coeffs)
        lp = dataclasses.replace(mod, p=2.0 + 1e-9)
        assert _fold_slope(lp, grid, coeffs) == pytest.approx(slope, abs=1e-8)

    @pytest.mark.parametrize(
        "p,rtol",
        [pytest.param(2.0, 1e-12, id="float64-2.0-1e-12"),
         pytest.param(1.5, 1e-12, id="float64-1.5-1e-12")],
    )
    def test_lag_means_match_indexed_oracle(self, monkeypatch, p, rtol):
        mod = SpectralModel(L_PI, 1, 12)
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        coeffs = _node_paths(mod, FracParams.fbm(0.4), grid, 300, seed=8)
        fits = []
        polyfit = np.polyfit
        monkeypatch.setattr(np, "polyfit", lambda x, y, deg: fits.append(y) or polyfit(x, y, deg))
        slope = _fold_slope(dataclasses.replace(mod, p=p), grid, coeffs)
        # the fit's definition with explicitly indexed increment copies
        n, i0 = grid.n_steps, grid.n_steps // 2
        xs, wq = mod.spatial_quadrature(64)
        ef = mod.eigenfunctions(xs)
        lags = [1, 2, 4, 8, 16]
        oracle = []
        for lag in lags:
            starts = np.arange(i0, n + 1 - lag)
            diff = coeffs[:, :, starts + lag] - coeffs[:, :, starts]
            if p == 2.0:
                norms = np.sqrt(np.einsum("pks,pks->ps", diff, diff))
            else:
                fields = np.einsum("pks,xk->pxs", diff, ef)
                norms = np.einsum("x,pxs->ps", wq, np.abs(fields) ** p) ** (1.0 / p)
            oracle.append(float(np.mean(norms)))
        assert len(fits) == 1  # the fit regresses the log lag means
        assert np.allclose(np.exp(fits[0]), oracle, rtol=rtol, atol=0.0)
        expected = polyfit(np.log(np.array(lags) * grid.dt), np.log(oracle), 1)[0]
        assert slope == pytest.approx(expected, rel=10 * rtol)

    def test_smooth_control_slope_is_one(self):
        grid = TimeGrid(0.0, 1.0 / 256, 256)
        ks = np.arange(1, 9)
        coeffs = np.exp(-ks[None, :, None]) * np.sin(grid.nodes[None, None, :] + ks[None, :, None])
        assert _fold_slope(SpectralModel(L_PI, 1, 8), grid, coeffs) == pytest.approx(1.0, abs=0.05)

    def test_short_grid_rejected(self, laplace8):
        grid = TimeGrid(0.0, 0.25, 4)
        coeffs = _node_paths(laplace8, FracParams.fbm(0.5), grid, 4, seed=5)
        with pytest.raises(ValueError, match="lag"):
            _fold_slope(laplace8, grid, coeffs)


class TestNeumannKernel:
    def test_positive_and_symmetric(self):
        u = np.array([0.01, 0.1, 1.0])
        a = neumann_heat_kernel(u, np.full(3, 0.3), 0.7, 1.0)
        b = neumann_heat_kernel(u, np.full(3, 0.7), 0.3, 1.0)
        assert np.all(a > 0)
        assert np.allclose(a, b, rtol=1e-12)

    def test_conserves_mass(self):
        # reflecting walls keep the total heat at one
        xs = np.linspace(0.0005, 0.9995, 1000)
        for u in (0.01, 0.3, 2.0):
            vals = neumann_heat_kernel(np.full_like(xs, u), xs, 0.4, 1.0)
            assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("length", [1.0, 2.5])
    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    def test_matches_cosine_eigen_series(self, length, scale):
        # 1/L + (2/L) sum_k cos(k pi x/L) cos(k pi y/L) e^{-(k pi/L)^2 u}: the
        # image count must follow the time, or long times lose mass; the series
        # cancels to rounding of its peak far from y, hence the scaled atol
        u = scale * length**2
        xs = length * np.array([0.0, 0.05, 0.3, 0.5, 0.95, 1.0])
        y = 0.7 * length
        k = np.arange(1, 2001)[:, None]
        wave = np.cos(k * np.pi * xs / length) * np.cos(k * np.pi * y / length)
        decay = np.exp(-((k * np.pi / length) ** 2) * u)
        series = (1.0 + 2.0 * np.sum(wave * decay, axis=0)) / length
        got = neumann_heat_kernel(np.full_like(xs, u), xs, y, length)
        np.testing.assert_allclose(got, series, rtol=1e-13, atol=1e-13 * series.max())

    def test_image_count(self):
        # twenty images per side at u = L = 1: the benchmark's kernel
        assert _image_count(1.0, 1.0) == 20
        assert _image_count(1e-12, 1.0) == 1
        assert _image_count(100.0, 1.0) == 200
        with pytest.raises(ValueError, match="time u = 101 at length 1"):
            _image_count(101.0, 1.0)


def _scalar_boundary_integral(cfg, surrogate_d=None):
    """The integral one node and one time shell at a time: the batched rule's oracle."""
    expo, outer_pow, length = 1.0 / (2.0 * cfg.hurst), cfg.p * cfg.hurst, cfg.length
    xg, wg = np.polynomial.legendre.leggauss(8)
    sg, sw = np.polynomial.legendre.leggauss(12)

    def q(s, x):
        if surrogate_d is not None:
            return _surrogate_kernel_sq(cfg, s, x, surrogate_d)
        xs = np.full_like(s, x)
        return neumann_heat_kernel(s, xs, 0.0, length) ** 2 + neumann_heat_kernel(s, xs, length, length) ** 2

    def time_shell(x, j):
        sn, snw = _dyadic_shell(cfg.t0, j, sg, sw)
        return float(snw @ q(sn, x) ** expo)

    def space_shell(j):
        xn, xw = _dyadic_shell(min(0.5 * length, _SHELL_START * math.sqrt(cfg.t0)), j, xg, wg)
        inner = np.array([_dyadic_sum(partial(time_shell, x), 120, 1e-12)[0] for x in xn])
        return 2.0 * float(xw @ inner**outer_pow)

    value, trace = _dyadic_sum(space_shell, 34, 1e-7)
    return value, tuple(trace)


class TestNeumannBoundaryIntegral:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(length=0.0, t0=1.0, hurst=0.9, p=2.0),
            dict(length=1.0, t0=0.0, hurst=0.9, p=2.0),
            dict(length=1.0, t0=1.0, hurst=0.4, p=2.0),
            dict(length=1.0, t0=1.0, hurst=1.0, p=2.0),
            dict(length=1.0, t0=1.0, hurst=0.9, p=2.5),
            dict(length=1.0, t0=1.0, hurst=0.9, p=1.0),
            dict(length=1.0, t0=101.0, hurst=0.9, p=2.0),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            NeumannKernelConfig(**kwargs)

    def test_finite_for_admissible_interval_cases(self):
        # the d=1 threshold sits below 1/2, so every admissible pair is finite
        for hurst, p in ((0.6, 2.0), (0.75, 1.5), (0.9, 2.0)):
            rec = neumann_boundary_integral(NeumannKernelConfig(1.0, 1.0, hurst, p))
            assert not rec.diverged
            assert math.isfinite(rec.value) and rec.value > 0
            tail = rec.refinement_trace
            assert abs(tail[-1] / tail[-2] - 1.0) < 0.01

    def test_reference_value_stable(self):
        rec = neumann_boundary_integral(NeumannKernelConfig(1.0, 1.0, 0.9, 2.0))
        assert rec.value == pytest.approx(2.164030, rel=1e-4)

    def test_vanishing_horizon_monotone(self):
        vals = [
            neumann_boundary_integral(NeumannKernelConfig(1.0, t0, 0.9, 2.0)).value
            for t0 in (1.0, 0.5, 0.25, 0.125)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1

    def test_surrogate_divergence_mechanism(self):
        sub = neumann_boundary_integral(
            NeumannKernelConfig(1.0, 1.0, 0.6, 2.0), surrogate_d=2
        )
        assert sub.diverged
        assert sub.value == math.inf
        sup = neumann_boundary_integral(
            NeumannKernelConfig(1.0, 1.0, 0.9, 2.0), surrogate_d=2
        )
        assert not sup.diverged
        assert math.isfinite(sup.value)

    def test_surrogate_dimension_validated(self):
        with pytest.raises(ValueError, match="dimension"):
            neumann_boundary_integral(
                NeumannKernelConfig(1.0, 1.0, 0.9, 2.0), surrogate_d=0
            )

    def test_short_horizon_matches_rescaled_domain(self):
        # x -> x / sqrt(t0), s -> s / t0 maps (L, t0) onto (L / sqrt(t0), 1) and
        # scales the integral by t0^(pH - p/2 + 1/2) = t0^0.875; the shells must
        # start where the kernel lives, or a short horizon underflows to 0
        short = neumann_boundary_integral(NeumannKernelConfig(1.0, 1e-8, 0.75, 1.5))
        wide = neumann_boundary_integral(NeumannKernelConfig(1e4, 1.0, 0.75, 1.5))
        assert short.value / 1e-8**0.875 == pytest.approx(wide.value, rel=1e-9)
        shorter = neumann_boundary_integral(NeumannKernelConfig(1.0, 1e-9, 0.75, 1.5))
        assert shorter.value > 0
        for rec in (short, wide, shorter):
            assert len(rec.refinement_trace) < 34

    @pytest.mark.parametrize(
        "args, surrogate_d",
        [
            ((1.0, 1.0, 0.6, 2.0), None),
            ((1.0, 1.0, 0.75, 1.5), None),
            ((1.0, 1.0, 0.9, 2.0), None),
            ((1.0, 1.0, 0.6, 2.0), 2),  # diverges after all 34 shells
            ((1.0, 1.0, 0.9, 2.0), 2),
            ((1.0, 100.0, 0.75, 1.5), None),  # 200 images per side
            ((1.0, 1e-8, 0.75, 1.5), None),  # shells start at 10 sqrt(t0)
        ],
        ids=["c10-0.6", "c10-0.75", "c10-0.9", "surrogate-diverged", "surrogate-finite", "t0-100", "t0-1e-8"],
    )
    def test_batched_matches_scalar_rule(self, args, surrogate_d, monkeypatch):
        # kernel values, image counts, 12-point sums and stopping rule are the
        # scalar loop's, so value and trace agree bit for bit at any chunk size
        cfg = NeumannKernelConfig(*args)
        value, trace = _scalar_boundary_integral(cfg, surrogate_d)
        if surrogate_d == 2 and args[2] == 0.6:
            assert value == math.inf and len(trace) == 34
        for chunk in (spde._TIME_CHUNK, 1, 120):
            monkeypatch.setattr(spde, "_TIME_CHUNK", chunk)
            rec = neumann_boundary_integral(cfg, surrogate_d=surrogate_d)
            assert rec.value == value
            assert rec.refinement_trace == trace

    def test_record_roundtrip(self):
        # the three fields the spde-boundary summary writes survive JSON
        # exactly; the value is the last partial sum plus a positive tail
        rec = neumann_boundary_integral(NeumannKernelConfig(1.0, 0.5, 0.8, 2.0))
        d = {"value": rec.value, "diverged": rec.diverged, "refinement_trace": list(rec.refinement_trace)}
        assert json.loads(json.dumps(d)) == d
        assert d["diverged"] is False
        trace = d["refinement_trace"]
        assert all(b > a for a, b in zip(trace, trace[1:]))
        assert trace[-1] <= rec.value == pytest.approx(trace[-1], rel=1e-6)


CFG75 = NeumannKernelConfig(length=1.0, t0=1.0, hurst=0.75, p=2.0)


class TestBoundarySolutionCheck:
    def test_x_nodes_validated(self):
        with pytest.raises(ValueError, match="inside the domain"):
            boundary_solution_check(CFG75, 8, x_nodes=[0.2, 0.1])
        # a NaN node fails every comparison, so it is refused before any draw
        with pytest.raises(ValueError, match="inside the domain"):
            boundary_solution_check(CFG75, 8, x_nodes=[0.25, math.nan, 0.75])
        # nearer a wall the graded kernel's floor 0.02 x^2 (1e-200) or its first
        # midpoint (1e-100) underflows
        for x in ("1e-200", "1e-100"):
            with pytest.raises(ValueError, match=rf"x_nodes: node {x} .* down to 4.86e-76"):
                boundary_solution_check(CFG75, 8, x_nodes=[float(x), 0.5])
        # 1e-60 from a wall is resolved
        rec = boundary_solution_check(CFG75, 8, grid_steps=8, x_nodes=[1e-60, 0.5])
        assert np.all(np.isfinite(rec.expected_profile)) and np.all(rec.expected_profile > 0)

    def test_unresolved_horizon_refused(self):
        with pytest.raises(ValueError, match="horizon t0 = 1e-160"):
            boundary_solution_check(NeumannKernelConfig(1.0, 1e-160, 0.75, 2.0), 8)

    def test_pointwise_isometry_three_se(self):
        n_paths = 4000
        rec = boundary_solution_check(CFG75, n_paths, grid_steps=128, seed=51)
        se = rec.expected_profile * math.sqrt(2.0 / n_paths)
        z = (rec.variance_profile - rec.expected_profile) / se
        assert np.abs(z).max() < 3.0

    def test_profile_rises_toward_both_walls(self):
        rec = boundary_solution_check(CFG75, 2000, grid_steps=128, seed=52)
        mid = rec.variance_profile.size // 2
        assert rec.variance_profile[0] > rec.variance_profile[mid]
        assert rec.variance_profile[-1] > rec.variance_profile[mid]
        assert rec.gamma_norm == pytest.approx(1.4461, rel=1e-3)

    def test_uncorrelated_boundary_case_log_law(self):
        # at the uncorrelated point the near-wall second moment grows like
        # (2/pi) ln(1/x): the kernel-power signature of the wall singularity
        cfg = NeumannKernelConfig(length=1.0, t0=1.0, hurst=0.5, p=2.0)
        xs = 2.0 ** -np.arange(3, 11)
        rec = boundary_solution_check(cfg, 4, grid_steps=8, x_nodes=xs[::-1])
        prof = rec.expected_profile[::-1]
        slope = np.polyfit(np.log(1.0 / xs), prof, 1)[0]
        assert slope == pytest.approx(2.0 / math.pi, rel=0.05)
        assert prof[-1] - prof[0] > 1.5

    def test_smooth_case_profile_bounded_near_wall(self):
        xs = [2.0**-10, 2.0**-7, 2.0**-4]
        rec = boundary_solution_check(CFG75, 4, grid_steps=8, x_nodes=xs)
        prof = rec.expected_profile
        assert prof[0] / prof[-1] < 1.15
