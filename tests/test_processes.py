"""Tests for fractional process simulation.

Monte Carlo assertions use standard-error bands computed from the sample
itself; deterministic kernel-discretization error is tested separately
against frozen thresholds measured at the pinned resolutions.
"""
import threading
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import stats

from fracwiener import processes, rng
from fracwiener.chaos import DiscreteIsonormal
from fracwiener.grids import TimeGrid
from fracwiener.processes import (
    CylindricalEnsemble,
    Family,
    FracParams,
    covariance_rh,
    hermite_covariance,
    simulate_cylindrical,
    simulate_fbm,
    simulate_hermite_k2,
)
from fracwiener.rng import block_generator, map_ordered, map_path_blocks, path_blocks, worker_threads

NINE_POINT = [0.25, 0.5, 1.0]


def _fgn_autocovariance(params, grid):
    # gamma(0 .. n) of the fBm increments, as simulate_fbm builds it
    lags = grid.dt * np.arange(grid.n_steps + 2)
    return processes._increment_covariance(lags[:2], lags, params.h)[0]


def _increment_factor(gamma):
    # the Cholesky drawer's factor, of the increments' Toeplitz matrix; the
    # chunked-draw test pins simulate_fbm to it
    n = gamma.size - 1
    idx = np.arange(n)
    return np.linalg.cholesky(gamma[np.abs(idx[:, None] - idx)])


def _node_factor(gamma):
    # the running sum of the increment factor's rows: the factor of the node
    # values that PathEnsemble.paths takes as the running sum of increments
    return np.cumsum(_increment_factor(gamma), axis=0)


def _drawer_increments(drawer, params, grid, n_paths, seed, stream=0):
    # one fBm drawer on simulate_fbm's block keys, whatever the grid size
    draw = drawer(_fgn_autocovariance(params, grid))
    return map_path_blocks(
        lambda blk, sl: draw(block_generator(seed, stream, blk), sl.stop - sl.start),
        n_paths,
    )


class TestWorkerThreads:
    def test_blocks_leave_the_main_thread_only_inside_the_setting(self, monkeypatch):
        # 7-path blocks: 20 paths make three blocks
        monkeypatch.setattr(rng, "BLOCK_PATHS", 7)

        def threads_used() -> set:
            seen = []
            map_path_blocks(lambda b, sl: seen.append(threading.get_ident()) or np.zeros(1), 20)
            return set(seen)

        main = {threading.get_ident()}
        assert threads_used() == main
        with worker_threads(2):
            assert main.isdisjoint(threads_used())
            with worker_threads(1):
                assert threads_used() == main
            assert main.isdisjoint(threads_used())
        assert threads_used() == main
        with pytest.raises(RuntimeError), worker_threads(2):
            raise RuntimeError
        assert threads_used() == main


class TestMapOrdered:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_order_with_bounded_flight(self, workers):
        lock, live, most = threading.Lock(), [0], [0]

        def task(i):
            with lock:
                live[0] += 1
                most[0] = max(most[0], live[0])
            try:
                # each call sees one worker, so its path blocks run serially
                return i, rng._WORKERS.get(), threading.get_ident()
            finally:
                with lock:
                    live[0] -= 1

        with worker_threads(workers):
            out = list(map_ordered(task, 7))
        assert [i for i, _, _ in out] == list(range(7))
        assert {w for _, w, _ in out} == {1}
        assert most[0] <= workers
        main = threading.get_ident()
        assert ({t for _, _, t in out} == {main}) == (workers == 1)

    def test_single_call_keeps_the_pool_for_its_blocks(self):
        with worker_threads(3):
            assert list(map_ordered(lambda i: rng._WORKERS.get(), 1)) == [3]

    def test_early_close_cancels_what_has_not_started(self):
        started = []
        before = threading.active_count()
        with worker_threads(2):
            it = map_ordered(lambda i: started.append(i) or i, 50)
            assert next(it) == 0
            it.close()
        assert threading.active_count() == before
        assert max(started) <= 2


class TestCovarianceRh:
    @pytest.mark.parametrize("h", [0.1, 0.5, 0.9])
    def test_unit_point(self, h):
        assert covariance_rh(1.0, 1.0, h) == 1.0

    def test_diagonal(self):
        for s in (-2.0, 0.3, 1.7):
            assert covariance_rh(s, s, 0.3) == pytest.approx(abs(s) ** 0.6, rel=1e-14)

    def test_brownian_is_minimum(self):
        for s in (0.2, 1.0, 2.5):
            for t in (0.4, 1.0, 3.0):
                assert covariance_rh(s, t, 0.5) == pytest.approx(min(s, t), rel=1e-14)

    def test_symmetry_and_domain(self):
        assert covariance_rh(0.3, 1.2, 0.7) == covariance_rh(1.2, 0.3, 0.7)
        with pytest.raises(ValueError):
            covariance_rh(1.0, 1.0, 1.0)


class TestIncrementCovariance:
    @pytest.mark.parametrize("n", [1025, 8192])
    @pytest.mark.parametrize("h", [0.05, 0.5, 0.75, 0.99])
    def test_fgn_row_against_decimal(self, n, h):
        """The first row that the circulant drawer embeds, against 50-digit fGn values.

        gamma_k = (|k+1|^2H + |k-1|^2H - 2|k|^2H) dt^2H / 2 at 60 lags up to n.
        """
        dt = 1.0 / n
        lags = dt * np.arange(n + 2)
        row = processes._increment_covariance(lags[:2], lags, h)[0]
        ks = np.unique(np.concatenate([np.arange(20), np.geomspace(20, n, 40).round()]))
        assert ks.size == 60
        with localcontext() as ctx:
            ctx.prec = 50
            two_h, scale = Decimal(2 * h), Decimal(dt) ** Decimal(2 * h)
            want = [
                float((abs(k + 1) ** two_h + abs(k - 1) ** two_h - 2 * abs(k) ** two_h) * scale / 2)
                for k in (Decimal(int(k)) for k in ks)
            ]
        err = np.abs(row[ks.astype(int)] - np.array(want))
        assert err.max() <= 2e-8 * want[0]


class TestFracParams:
    def test_fbm(self):
        p = FracParams.fbm(0.3)
        assert p.family is Family.FBM and p.chaos_order == 1
        with pytest.raises(ValueError):
            FracParams.fbm(1.0)

    def test_rosenblatt(self):
        p = FracParams.rosenblatt(0.75)
        assert p.alpha == pytest.approx(-1.25)
        assert p.beta == 0.0 and p.k == 2 and p.chaos_order == 2
        with pytest.raises(ValueError):
            FracParams.rosenblatt(0.4)

    def test_generalized_admissible(self):
        p = FracParams.generalized(-1.25, -0.15, 2)
        assert p.h == pytest.approx(0.6)
        assert p.chaos_order == 2
        # k = 4 region exists too
        p4 = FracParams.generalized(-2.2, -0.5, 4)
        assert p4.h == pytest.approx(0.3) and p4.chaos_order == 4

    @pytest.mark.parametrize(
        "alpha,beta",
        [(-0.9, -0.15), (-1.6, -0.15), (-1.25, 0.3), (-1.25, -0.8)],
    )
    def test_generalized_rejects_outside_region(self, alpha, beta):
        with pytest.raises(ValueError, match="admissible"):
            FracParams.generalized(alpha, beta, 2)

    def test_direct_constructor_checks_consistency(self):
        with pytest.raises(ValueError):
            FracParams(Family.GENERALIZED, 0.9, alpha=-1.25, beta=-0.15, k=2)
        with pytest.raises(ValueError):
            FracParams(Family.GENERALIZED, 0.6)


class TestSimulateFbm:
    def test_basic_shape_and_zero_start(self):
        grid = TimeGrid(0.0, 1.0 / 32, 32)
        ens = simulate_fbm(FracParams.fbm(0.7), grid, 500, seed=1)
        assert ens.paths.shape == (500, 33)
        assert np.all(ens.paths[:, 0] == 0.0)
        with pytest.raises(ValueError):
            simulate_fbm(FracParams.fbm(0.7), TimeGrid(1.0, 0.1, 4), 10, seed=1)
        with pytest.raises(ValueError):
            simulate_fbm(FracParams.rosenblatt(0.7), grid, 10, seed=1)

    @pytest.mark.parametrize(
        "n_steps, drawer", [(1024, "_fbm_cholesky_drawer"), (1025, "_fbm_circulant_drawer")]
    )
    def test_grid_size_picks_the_drawer(self, monkeypatch, n_steps, drawer):
        # 7-path blocks keep the 1024-step factor cheap; 15 paths make three
        # blocks, the last with an odd count
        monkeypatch.setattr(rng, "BLOCK_PATHS", 7)
        grid = TimeGrid(0.0, 1.0 / n_steps, n_steps)
        p = FracParams.fbm(0.6)
        a = simulate_fbm(p, grid, 15, seed=5, stream=2).increments
        assert np.array_equal(a, _drawer_increments(getattr(processes, drawer), p, grid, 15, 5, 2))
        with worker_threads(4):
            assert np.array_equal(a, simulate_fbm(p, grid, 15, seed=5, stream=2).increments)
        assert not np.array_equal(a, simulate_fbm(p, grid, 15, seed=5, stream=3).increments)

    def test_chunked_cholesky_draw_matches_the_whole_block_product(self):
        # the drawer multiplies row chunks of normals into its output; the
        # bytes are those of one (b, n) draw times the factor, per block
        grid = TimeGrid(0.0, 1.0 / 256, 256)
        p = FracParams.fbm(0.4)
        chol = _increment_factor(_fgn_autocovariance(p, grid))
        rows = processes._NORMAL_CHUNK_ELEMENTS // grid.n_steps
        for n_paths in (1, rows - 1, rows, rows + 1, 2 * rows + 1, rng.BLOCK_PATHS + 1):
            want = np.concatenate([
                block_generator(3, 1, b).standard_normal((sl.stop - sl.start, 256)) @ chol.T
                for b, sl in path_blocks(n_paths)
            ])
            for workers in (1, 2):
                with worker_threads(workers):
                    got = simulate_fbm(p, grid, n_paths, seed=3, stream=1).increments
                assert np.array_equal(got, want), (n_paths, workers)

    def test_linear_map_maps_the_same_increments(self, monkeypatch):
        # A @ dz, time-major, for the increments of the same paths, with A
        # folded into the factor; 7-path blocks give three blocks, the last short
        monkeypatch.setattr(rng, "BLOCK_PATHS", 7)
        n_steps = 64
        grid = TimeGrid(0.0, 1.0 / n_steps, n_steps)
        p = FracParams.fbm(0.35)
        a = np.random.default_rng(0).standard_normal((5, n_steps))
        dz = simulate_fbm(p, grid, 17, seed=4, stream=3).increments
        want = a @ dz.T
        got = simulate_fbm(p, grid, 17, seed=4, stream=3, linear_map=a)
        assert got.shape == (5, 17)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        with worker_threads(3):
            assert np.array_equal(simulate_fbm(p, grid, 17, seed=4, stream=3, linear_map=a), got)
        with pytest.raises(ValueError, match="shape"):
            simulate_fbm(p, grid, 17, seed=4, linear_map=a[:, 1:])
        long = TimeGrid(0.0, 1.0 / 1025, 1025)
        with pytest.raises(ValueError, match="Cholesky grid"):
            simulate_fbm(p, long, 17, seed=4, linear_map=np.ones((1, 1025)))

    @pytest.mark.parametrize("n", [16, 256, 1024])
    @pytest.mark.parametrize("h", [0.1, 0.5, 0.9])
    def test_increment_factor_accumulates_to_the_node_factor(self, h, n):
        # the Cholesky factor is unique, so the running sum of the drawn
        # increments, which PathEnsemble.paths takes, gives the same paths as
        # a factor of the node covariance, up to rounding.  The
        # bound is relative to the largest entry: at H = 0.9 the node
        # covariance is ill-conditioned, and its factor's small diagonal
        # entries deviate by up to 2e-9 of themselves at 1024 steps
        grid = TimeGrid(0.0, 1.0 / n, n)
        t = grid.nodes[1:]
        want = np.linalg.cholesky(covariance_rh(t[:, None], t[None, :], h))
        got = _node_factor(_fgn_autocovariance(FracParams.fbm(h), grid))
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_wiener_increment_variance(self):
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        with worker_threads(4):
            ens = simulate_fbm(FracParams.fbm(0.5), grid, 30_000, seed=3)
        inc = ens.increments
        v = np.var(inc, ddof=1)
        se = v * np.sqrt(2.0 / inc.size)
        assert abs(v - grid.dt) < 4 * se + 1e-12

    def test_terminal_variance(self):
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        with worker_threads(4):
            ens = simulate_fbm(FracParams.fbm(0.75), grid, 50_000, seed=1)
        v = np.var(ens.paths[:, -1], ddof=1)
        se = v * np.sqrt(2.0 / (ens.n_paths - 1))
        assert abs(v - 1.0) < 3 * se

    def test_increment_second_moment(self):
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        h = 0.3
        with worker_threads(4):
            paths = simulate_fbm(FracParams.fbm(h), grid, 40_000, seed=9).paths
        for i, j in [(8, 24), (16, 64), (0, 40)]:
            d = paths[:, j] - paths[:, i]
            m = np.mean(d * d)
            se = np.std(d * d, ddof=1) / np.sqrt(len(d))
            target = (grid.dt * (j - i)) ** (2 * h)
            assert abs(m - target) < 4 * se

    def test_stationary_increments(self):
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        with worker_threads(4):
            paths = simulate_fbm(FracParams.fbm(0.75), grid, 50_000, seed=41).paths
        lag = 8
        target = (lag * grid.dt) ** 1.5
        for start in (0, 8, 20, 32, 48):
            d = paths[:, start + lag] - paths[:, start]
            v = np.var(d, ddof=1)
            se = v * np.sqrt(2.0 / (len(d) - 1))
            assert abs(v - target) < 3 * se

    @pytest.mark.parametrize("h", [0.3, 0.75])
    def test_holder_regression_recovers_h(self, h):
        # log-log slope of RMS increments against dyadic lags up to n/4
        grid = TimeGrid(0.0, 1.0 / 128, 128)
        with worker_threads(4):
            paths = simulate_fbm(FracParams.fbm(h), grid, 20_000, seed=13).paths
        lags = [2**j for j in range(6)]
        rms = [np.sqrt(np.mean((paths[:, lag:] - paths[:, :-lag]) ** 2)) for lag in lags]
        slope = np.polyfit(np.log(np.array(lags) * grid.dt), np.log(rms), 1)[0]
        assert slope == pytest.approx(h, abs=0.03)

    def test_jitter_flag(self):
        # the case the deleted jitter flag was for: H = 0.9 on a coarse
        # grid factors without any diagonal shift
        grid = TimeGrid(0.0, 1.0 / 32, 32)
        with worker_threads(4):
            a = simulate_fbm(FracParams.fbm(0.9), grid, 20_000, seed=2)
        v = np.var(a.paths[:, -1], ddof=1)
        assert v == pytest.approx(1.0, rel=0.05)

    def test_marginal_normality(self):
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        with worker_threads(4):
            ens = simulate_fbm(FracParams.fbm(0.75), grid, 50_000, seed=41)
        assert stats.normaltest(ens.paths[:, -1]).pvalue > 0.01

    def test_circulant_agrees_in_law(self):
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        p = FracParams.fbm(0.75)
        with worker_threads(4):
            chol = simulate_fbm(p, grid, 50_000, seed=1)
            circ = np.cumsum(
                _drawer_increments(processes._fbm_circulant_drawer, p, grid, 50_000, 2), axis=1
            )
        t = grid.nodes[1:]
        emp = np.var(circ, axis=0, ddof=1)
        rel = emp / t**1.5
        band = 4 * np.sqrt(2.0 / (circ.shape[0] - 1))
        assert np.all(np.abs(rel - 1.0) < band)
        assert stats.ks_2samp(chol.paths[:, -1], circ[:, -1]).pvalue > 0.01

    def test_circulant_pair_uncorrelated(self):
        # one block of 4000 paths: path i is the real part of transform i,
        # path i + 2000 its imaginary part
        grid = TimeGrid(0.0, 1.0 / 32, 32)
        inc = _drawer_increments(processes._fbm_circulant_drawer, FracParams.fbm(0.3), grid, 4000, 6)
        h = inc.shape[0] // 2
        re, im = np.cumsum(inc[:h], axis=1), np.cumsum(inc[h:], axis=1)
        corr = np.mean(re * im, axis=0) / np.sqrt(np.mean(re**2, axis=0) * np.mean(im**2, axis=0))
        assert np.all(np.abs(corr) < 4.0 / np.sqrt(h))

    def test_circulant_increment_covariance(self):
        # the fGn Toeplitz matrix as the mixed second difference of R_H
        grid = TimeGrid(0.0, 1.0 / 16, 16)
        h = 0.3
        inc = _drawer_increments(processes._fbm_circulant_drawer, FracParams.fbm(h), grid, 20_001, 12)
        t = grid.nodes
        r = covariance_rh(t[:, None], t[None, :], h)
        target = r[1:, 1:] - r[1:, :-1] - r[:-1, 1:] + r[:-1, :-1]
        prod = inc[:, :, None] * inc[:, None, :]
        se = np.std(prod, axis=0, ddof=1) / np.sqrt(inc.shape[0])
        z = (np.mean(prod, axis=0) - target) / se
        assert np.abs(z).max() < 4.5


def _nine_point_z(ens, h):
    zmax = 0.0
    paths = ens.paths
    for s in NINE_POINT:
        for t in NINE_POINT:
            i, snap = ens.grid.nearest_node(s)
            j, _ = ens.grid.nearest_node(t)
            assert snap < 1e-12
            prod = paths[:, i] * paths[:, j]
            se = np.std(prod, ddof=1) / np.sqrt(len(prod))
            z = (np.mean(prod) - covariance_rh(s, t, h)) / se
            zmax = max(zmax, abs(z))
    return zmax


class TestSimulateHermite:
    def test_zero_time_and_start(self):
        par = FracParams.rosenblatt(0.75)
        iso = DiscreteIsonormal.for_window(1.0, 128, seed=1)
        grid = TimeGrid(0.0, 0.5, 2)
        ens = simulate_hermite_k2(par, grid, iso, 200)
        assert np.all(ens.paths[:, 0] == 0.0)
        assert not np.all(ens.paths[:, 1] == 0.0)

    def test_deterministic_and_thread_invariant(self):
        par = FracParams.rosenblatt(0.75)
        iso = DiscreteIsonormal.for_window(1.0, 128, seed=4)
        grid = TimeGrid(0.0, 0.25, 4)
        a = simulate_hermite_k2(par, grid, iso, 6000).paths
        with worker_threads(6):
            b = simulate_hermite_k2(par, grid, iso, 6000).paths
        assert np.array_equal(a, b)

    def test_centred(self):
        # the subtracted trace is that of the truncated forms, so E z_t = 0
        par = FracParams.rosenblatt(0.75)
        iso = DiscreteIsonormal.for_window(1.0, 256, seed=33)
        with worker_threads(4):
            ens = simulate_hermite_k2(par, TimeGrid(0.0, 0.25, 4), iso, 30_000)
        x = ens.paths[:, 1:]
        z = x.mean(axis=0) / (x.std(axis=0, ddof=1) / np.sqrt(len(x)))
        assert np.abs(z).max() < 4.0

    def test_basis_chunks_agree(self, monkeypatch):
        # one basis column per chunk of zeta @ basis, as for wide bases
        par = FracParams.rosenblatt(0.75)
        iso = DiscreteIsonormal.for_window(1.0, 128, seed=4)
        grid = TimeGrid(0.0, 0.125, 8)
        whole = simulate_hermite_k2(par, grid, iso, 500).paths
        monkeypatch.setattr(processes, "_CHUNK_ELEMENTS", 1)
        chunked = simulate_hermite_k2(par, grid, iso, 500).paths
        assert np.allclose(chunked, whole, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "par,n_cells,n_steps",
        [
            (FracParams.rosenblatt(0.75), 512, 8),
            (FracParams.rosenblatt(0.7), 256, 256),
            (FracParams.generalized(-1.2, -0.1, 2), 256, 8),
        ],
        ids=["rosenblatt-8", "rosenblatt-256", "generalized"],
    )
    def test_eigenbasis_sampler_matches_untruncated_forms(self, monkeypatch, par, n_cells, n_steps):
        """sample_block against the time differences of C [zeta^T Q_t zeta - tr Q_t],
        Q_t = a^T diag(w k_t) a untruncated.

        Each increment form keeps its eigenpairs up to _ENERGY_TOL of its
        trace norm: the |lambda| it drops sum to at most that fraction.
        """
        iso = DiscreteIsonormal.for_window(1.0, n_cells, seed=3)
        times = TimeGrid(0.0, 1.0 / n_steps, n_steps).nodes
        op, a = _operator_and_factor(monkeypatch, par, times, iso, 0.6)
        u, w = _unit_horizon_nodes(par, iso, 0.6, times)
        omega = np.array([w * processes._filter_weight(t, u, par.beta) for t in times])
        forms = np.array([(a * om[:, None]).T @ a for om in omega])
        scale = 1.0 / np.sqrt(2.0 * np.sum(forms[-1] ** 2))  # t_end = 1
        zeta = op.latent.increment_block(0, 300)
        quad = np.einsum("pi,tij,pj->pt", zeta, forms, zeta)
        oracle = np.diff(scale * (quad - np.trace(forms, axis1=1, axis2=2)), axis=1)
        assert np.abs(op.sample_block(0, 300) - oracle).max() <= 1e-12 * np.abs(oracle).max()
        # eigenpairs kept per increment: each row of weights is one-hot on its increment
        kept = np.bincount(np.argmax(op.weights != 0, axis=1), minlength=times.size - 1)
        d_omega = np.diff(omega, axis=0)
        for j, dom in enumerate(d_omega):
            mags = np.sort(np.abs(np.linalg.eigvalsh((a * dom[:, None]).T @ a)))
            assert mags[:op.rank - kept[j]].sum() <= processes._ENERGY_TOL * mags.sum()

    def test_family_validation(self):
        iso = DiscreteIsonormal.for_window(1.0, 64, seed=1)
        grid = TimeGrid(0.0, 0.25, 4)
        with pytest.raises(ValueError):
            simulate_hermite_k2(FracParams.fbm(0.6), grid, iso, 10)
        with pytest.raises(ValueError):
            simulate_hermite_k2(FracParams.generalized(-2.2, -0.5, 4), grid, iso, 10)
        short = DiscreteIsonormal.for_window(0.5, 64, seed=1)
        with pytest.raises(ValueError, match="window"):
            simulate_hermite_k2(FracParams.rosenblatt(0.75), grid, short, 10)

    def test_rosenblatt_covariance_nine_point(self):
        par = FracParams.rosenblatt(0.75)
        iso = DiscreteIsonormal.for_window(1.0, 256, seed=31)
        grid = TimeGrid(0.0, 0.25, 4)
        with worker_threads(4):
            ens = simulate_hermite_k2(par, grid, iso, 30_000)
        assert _nine_point_z(ens, 0.75) < 4.0

    def test_generalized_covariance_nine_point(self):
        par = FracParams.generalized(-1.1, -0.15, 2)
        iso = DiscreteIsonormal.for_window(1.0, 256, seed=32)
        grid = TimeGrid(0.0, 0.25, 4)
        with worker_threads(4):
            ens = simulate_hermite_k2(par, grid, iso, 20_000)
        assert _nine_point_z(ens, par.h) < 4.0

    def test_self_similarity_ratio(self):
        par = FracParams.rosenblatt(0.75)
        iso = DiscreteIsonormal.for_window(1.0, 256, seed=31)
        grid = TimeGrid(0.0, 0.25, 4)
        with worker_threads(4):
            ens = simulate_hermite_k2(par, grid, iso, 30_000)
        v_half = ens.paths[:, 2] ** 2
        v_one = ens.paths[:, 4] ** 2
        r = np.mean(v_one) / np.mean(v_half)
        n = len(v_one)
        cov = np.cov(v_one, v_half, ddof=1)
        se = r * np.sqrt(
            (
                cov[0, 0] / np.mean(v_one) ** 2
                + cov[1, 1] / np.mean(v_half) ** 2
                - 2 * cov[0, 1] / (np.mean(v_one) * np.mean(v_half))
            )
            / n
        )
        assert abs(r - 2.0**1.5) < 3 * se

    def test_skewness_witnesses_non_gaussianity(self):
        par = FracParams.rosenblatt(0.75)
        iso = DiscreteIsonormal.for_window(1.0, 256, seed=31)
        grid = TimeGrid(0.0, 0.25, 4)
        with worker_threads(4):
            ens = simulate_hermite_k2(par, grid, iso, 30_000)
        assert stats.skew(ens.paths[:, -1]) > 0.5

    @pytest.mark.parametrize(
        "h,warp,bound",
        [(0.75, 0.6, 0.005), (0.9, 0.35, 0.005), (0.6, 0.6, 0.03)],
    )
    def test_deterministic_covariance_error(self, h, warp, bound):
        """hermite_covariance, the exact law of simulate_hermite_k2 (isometry), against R_H.

        Kernel-discretization bias alone; rough at H near 1/2 where the
        near-diagonal residual decays like dx^{2H-1}.
        """
        par = FracParams.rosenblatt(h)
        iso = DiscreteIsonormal.for_window(1.0, 512, seed=1)
        cov = hermite_covariance(par, NINE_POINT, iso, warp_scale=warp)
        tgt = np.array([[covariance_rh(s, t, h) for t in NINE_POINT] for s in NINE_POINT])
        assert np.abs(cov - tgt).max() < bound

    def test_deterministic_covariance_generalized(self):
        """hermite_covariance for the generalized family of the isometry kind, against R_H."""
        par = FracParams.generalized(-1.1, -0.15, 2)
        iso = DiscreteIsonormal.for_window(1.0, 256, seed=1)
        cov = hermite_covariance(par, NINE_POINT, iso)
        tgt = np.array(
            [[covariance_rh(s, t, par.h) for t in NINE_POINT] for s in NINE_POINT]
        )
        assert np.abs(cov - tgt).max() < 0.005

    def test_refinement_convergence(self):
        """Noise-cell refinement of simulate_hermite_k2 (isometry), read through hermite_covariance.

        Halving the cell size moves the calibration target by under 1%.
        """
        par = FracParams.rosenblatt(0.75)
        v = []
        for n_cells in (512, 1024):
            iso = DiscreteIsonormal.for_window(1.0, n_cells, seed=1)
            v.append(hermite_covariance(par, [1.0], iso)[0, 0])
        assert abs(v[1] - v[0]) / v[0] < 0.01

    def test_window_doubling(self):
        """Noise-window length of simulate_hermite_k2 (isometry), read through hermite_covariance."""
        par = FracParams.rosenblatt(0.75)
        base = DiscreteIsonormal.for_window(1.0, 1024, seed=1, lead_factor=10.0)
        wide = DiscreteIsonormal.for_window(1.0, 1024, seed=1, lead_factor=20.0)
        a = hermite_covariance(par, [1.0], base)[0, 0]
        b = hermite_covariance(par, [1.0], wide)[0, 0]
        assert abs(a - b) / a < 0.03

    @pytest.mark.parametrize("lead", [1.0, 10.0], ids=["linear-zone", "warped"])
    def test_cell_average_row_chunks_agree(self, monkeypatch, lead):
        # every entry comes from the same elementwise operations in any chunk
        par = FracParams.rosenblatt(0.75)
        iso = DiscreteIsonormal.for_window(1.0, 512, seed=1, lead_factor=lead)
        u, _ = _unit_horizon_nodes(par, iso, 0.6, TimeGrid(0.0, 0.25, 4).nodes)
        args = (u, iso.grid.nodes, -1.0, 0.6, par.alpha)
        assert (iso.grid.nodes[0] < -1.0) == (lead > 1.0)  # a stretched zone only when warped
        default = processes._cell_averages(*args)
        monkeypatch.setattr(processes, "_CELL_CHUNK_ELEMENTS", 1)  # one row per chunk
        one_row = processes._cell_averages(*args)
        monkeypatch.setattr(processes, "_CELL_CHUNK_ELEMENTS", u.size * iso.grid.nodes.size)  # all rows
        all_rows = processes._cell_averages(*args)
        assert np.array_equal(one_row, default)
        assert np.array_equal(all_rows, default)

    @pytest.mark.parametrize(
        "h,n_cells,lead,warp",
        [(0.75, 4096, 10.0, 0.6), (0.9, 2048, 20.0, 0.35), (0.75, 1024, 10.0, 0.6)],
        ids=["c03-H0.75", "c03-H0.9", "c05"],
    )
    def test_low_rank_factor_matches_full_gram(self, monkeypatch, h, n_cells, lead, warp):
        """The rank-r operator of simulate_hermite_k2 (isometry) against the full pairing.

        The untruncated pairing is 2 C^2 omega (G o G) omega^T, G = dx gbar
        gbar^T, built here from the same cell averages; the operator's
        covariance is what hermite_covariance returns.
        """
        par = FracParams.rosenblatt(h)
        iso = DiscreteIsonormal.for_window(1.0, n_cells, seed=1, lead_factor=lead)
        times = TimeGrid(0.0, 0.25, 4).nodes
        op, a = _operator_and_factor(monkeypatch, par, times, iso, warp)
        assert op.dropped <= processes._ENERGY_TOL
        assert op.rank < n_cells
        _check_against_full_gram(op, a, par, times, iso, warp)

    def test_full_rank_factor_matches_full_gram(self, monkeypatch):
        """The widest sketch, width = n_cells: the generalized family keeps every cell direction."""
        par = FracParams.generalized(-1.2, -0.1, 2)
        iso = DiscreteIsonormal.for_window(1.0, 256, seed=1)
        times = TimeGrid(0.0, 0.25, 4).nodes
        op, a = _operator_and_factor(monkeypatch, par, times, iso, 0.6)
        assert op.rank == 256
        assert abs(op.dropped) <= processes._ENERGY_TOL
        _check_against_full_gram(op, a, par, times, iso, 0.6)


def _unit_horizon_nodes(par, iso, warp, times):
    # filter nodes and weights of the operator at horizon t_end = 1
    y_edges, _ = processes._warp(iso.grid.nodes, -1.0, warp)
    return processes._filter_nodes(times, par.beta, y_edges, iso.grid.nodes, -1.0, warp)


def _operator_and_factor(monkeypatch, par, times, iso, warp):
    # the operator, and the factor a its build computed
    factors = []
    factor = processes._low_rank_factor

    def spy(gbar, dx):
        factors.append(factor(gbar, dx))
        return factors[-1]

    monkeypatch.setattr(processes, "_low_rank_factor", spy)
    processes._operator_parts.cache_clear()  # a cached build would not call the spy
    op = processes._HermiteOperator(par, times, iso, warp)
    assert len(factors) == 1 and factors[0][1] == op.dropped
    return op, factors[0][0]


def _check_against_full_gram(op, a, par, times, iso, warp):
    # the dropped energy is what a misses of trace(dx gbar^T gbar), and the
    # covariance is the untruncated pairing's to 1e-12
    u, w = _unit_horizon_nodes(par, iso, warp, times)
    gbar = processes._cell_averages(u, iso.grid.nodes, -1.0, warp, par.alpha)
    dx = iso.grid.dt
    assert abs(op.dropped - (1.0 - np.sum(a * a) / (dx * np.sum(gbar * gbar)))) <= 1e-15
    omega = np.array([w * processes._filter_weight(t, u, par.beta) for t in times])
    gram = dx * (gbar @ gbar.T)
    del gbar
    gram *= gram
    raw = 2.0 * (omega @ gram @ omega.T)
    oracle = raw / raw[-1, -1]
    assert np.abs(op.covariance - oracle).max() <= 1e-12 * np.abs(oracle).max()


class TestCylindrical:
    def test_validation_and_sharing(self):
        grid = TimeGrid(0.0, 1.0 / 16, 16)
        with pytest.raises(ValueError):
            simulate_cylindrical(FracParams.fbm(0.6), grid, 0, 100, seed=1)
        ens = simulate_cylindrical(FracParams.fbm(0.6), grid, 2, 100, seed=1)
        assert ens.dim_u == 2 and ens.grid == grid

    def test_single_component_matches_scalar(self):
        grid = TimeGrid(0.0, 1.0 / 16, 16)
        cyl = simulate_cylindrical(FracParams.fbm(0.6), grid, 1, 400, seed=6)
        sca = simulate_fbm(FracParams.fbm(0.6), grid, 400, seed=6)
        assert np.array_equal(cyl.components[0].paths, sca.paths)

    def test_cross_component_independence(self):
        grid = TimeGrid(0.0, 1.0 / 16, 16)
        with worker_threads(4):
            cyl = simulate_cylindrical(FracParams.fbm(0.6), grid, 3, 20_000, seed=8)
        n = 20_000
        for a in range(3):
            for b in range(a + 1, 3):
                x = cyl.components[a].paths[:, -1]
                y = cyl.components[b].paths[:, -1]
                prod = x * y
                se = np.std(prod, ddof=1) / np.sqrt(n)
                assert abs(np.mean(prod)) < 4 * se

    def test_wiener_components(self):
        grid = TimeGrid(0.0, 1.0 / 32, 32)
        with worker_threads(4):
            cyl = simulate_cylindrical(FracParams.fbm(0.5), grid, 2, 20_000, seed=9)
        for comp in cyl.components:
            inc = comp.increments
            v = np.var(inc, ddof=1)
            se = v * np.sqrt(2.0 / inc.size)
            assert abs(v - grid.dt) < 4 * se + 1e-12

    def test_second_chaos_components(self):
        grid = TimeGrid(0.0, 0.5, 2)
        cyl = simulate_cylindrical(
            FracParams.rosenblatt(0.75), grid, 2, 4000, seed=10, n_noise_cells=128
        )
        x = cyl.components[0].paths[:, -1]
        y = cyl.components[1].paths[:, -1]
        assert not np.array_equal(x, y)
        prod = x * y
        se = np.std(prod, ddof=1) / np.sqrt(len(prod))
        assert abs(np.mean(prod)) < 4 * se

    def test_mismatched_grids_rejected(self):
        g1 = TimeGrid(0.0, 1.0 / 8, 8)
        g2 = TimeGrid(0.0, 1.0 / 16, 16)
        a = simulate_fbm(FracParams.fbm(0.6), g1, 50, seed=1)
        b = simulate_fbm(FracParams.fbm(0.6), g2, 50, seed=1)
        with pytest.raises(ValueError):
            CylindricalEnsemble((a, b))
