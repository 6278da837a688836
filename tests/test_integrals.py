"""Tests for Wiener integrals, cylindrical sums, gamma norms, and the
finiteness-condition evaluators.

Condition-evaluator targets were frozen from a high-precision run of the
closed forms: for g(u) = u^{-gamma} the double-integral part of the rough
condition is tau^{2H-2g}/(H-g) * [1/(2H-1) - 2B(1-g,2H-1) + B(1-2g,2H-1)]
with the Beta function continued past the pole (the poles cancel), and the
smooth condition integrates to tau^{1-g/H}/(1-g/H).
"""
import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from fracwiener.chaos import DiscreteIsonormal, moment_ratio
from fracwiener.grids import StepFunction, TimeGrid
from fracwiener.integrals import (
    HSOperator,
    LpKernelField,
    _dyadic_sum,
    _second_moment_z,
    _stops_decaying,
    condition_regular,
    condition_singular,
    cylindrical_integral,
    elementary_integral,
    gamma_norm_lp,
    isometry_report,
)
from fracwiener.processes import (
    FracParams,
    hermite_covariance,
    simulate_cylindrical,
    simulate_fbm,
    simulate_hermite_k2,
)
from fracwiener.rng import worker_threads
from fracwiener.sobolev import integrand_norm

GRID_F = TimeGrid(0.0, 1.0 / 64, 64)
GRID_R = TimeGrid(0.0, 0.25, 4)

# (H, gamma, tau) -> condition value, 30-digit quadrature
SINGULAR_ORACLE = {
    (0.3, 0.2, 1.0): 3.6710358574362511,
    (0.3, 0.1, 1.0): 1.4259194720994757,
    (0.45, 0.3, 2.0): 9.0921480290554857,
    (0.4, 0.25, 0.5): 3.4652670971552085,
}
REGULAR_ORACLE = {
    (0.7, 0.35, 1.0): 2.0,
    (0.5, 0.2, 1.0): 5.0 / 3.0,
    (0.8, 0.6, 1.5): 4.426727678801285,
}


def random_grid_step(rng, grid, n_max=5):
    k = int(rng.integers(2, min(n_max, grid.n_steps) + 2))
    idx = np.sort(rng.choice(grid.n_steps + 1, size=min(k, grid.n_steps + 1), replace=False))
    if len(idx) < 2:
        idx = np.array([0, grid.n_steps])
    return StepFunction(grid.nodes[idx], rng.normal(size=len(idx) - 1))


@pytest.fixture(scope="module")
def fbm_ensembles():
    with worker_threads(4):
        return {
            h: simulate_fbm(FracParams.fbm(h), GRID_F, 30_000, seed=seed)
            for h, seed in [(0.3, 201), (0.5, 202), (0.7, 203)]
        }


ROSENBLATT_ISO = DiscreteIsonormal.for_window(1.0, 1024, seed=204)


@pytest.fixture(scope="module")
def rosenblatt_ensemble():
    with worker_threads(4):
        return simulate_hermite_k2(FracParams.rosenblatt(0.7), GRID_R, ROSENBLATT_ISO, 12_000)


class TestElementaryIntegral:
    def test_indicator_telescopes_to_path_value(self, fbm_ensembles):
        ens = fbm_ensembles[0.5]
        res = elementary_integral(StepFunction.indicator(0.0, 1.0), ens)
        paths = ens.paths
        # the sum of the increments against their running sum: equal up to rounding
        err = np.abs(res.samples - (paths[:, -1] - paths[:, 0])).max()
        assert err <= 1e-12 * np.abs(paths).max()

    def test_empty_integrand_gives_zeros(self, fbm_ensembles):
        res = elementary_integral(StepFunction.empty(), fbm_ensembles[0.5])
        assert np.all(res.samples == 0.0)
        assert res.f.n_pieces == 0

    def test_linearity_pathwise(self, fbm_ensembles):
        ens = fbm_ensembles[0.3]
        rng = np.random.default_rng(11)
        f = random_grid_step(rng, ens.grid)
        g = random_grid_step(rng, ens.grid)
        lhs = elementary_integral(f.scaled(2.0) + g.scaled(-0.5), ens).samples
        rhs = (
            2.0 * elementary_integral(f, ens).samples
            - 0.5 * elementary_integral(g, ens).samples
        )
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_snapping_within_half_step(self, fbm_ensembles, caplog):
        ens = fbm_ensembles[0.5]
        dt = ens.grid.dt
        off = StepFunction(np.array([0.0, 0.5 + 0.3 * dt]), np.array([1.0]))
        on = StepFunction(np.array([0.0, 0.5]), np.array([1.0]))
        with caplog.at_level(logging.INFO, logger="fracwiener.integrals"):
            res = elementary_integral(off, ens)
        assert np.array_equal(res.samples, elementary_integral(on, ens).samples)
        assert res.snap_distance == pytest.approx(0.3 * dt)
        assert any("snapped" in r.message for r in caplog.records)

    def test_breakpoint_beyond_tolerance_rejected(self, fbm_ensembles):
        # every interior point snaps on a uniform grid, so only support
        # sticking out of the window can violate the tolerance
        ens = fbm_ensembles[0.5]
        bad = StepFunction(np.array([0.0, 1.0 + 2 * ens.grid.dt]), np.array([1.0]))
        with pytest.raises(ValueError, match="off the ensemble grid"):
            elementary_integral(bad, ens)

    def test_rough_driver_variance_matches_norm(self):
        # 1e5 paths; both mean and variance land inside their bands
        with worker_threads(4):
            ens = simulate_fbm(FracParams.fbm(0.3), GRID_F, 100_000, seed=207)
        f = random_grid_step(np.random.default_rng(88), GRID_F)
        res = elementary_integral(f, ens)
        dh_sq = integrand_norm(res.f, 0.3) ** 2
        mc, _, z = _second_moment_z(res.samples, dh_sq)
        assert abs(z) < 3
        assert abs(np.mean(res.samples)) < 4 * np.sqrt(mc / res.n_paths)

    def test_record_serializes(self, fbm_ensembles):
        # provenance of a grid-aligned scalar integral: every path kept,
        # nothing snapped, no truncation tail
        res = elementary_integral(StepFunction.indicator(0.0, 0.5), fbm_ensembles[0.5])
        assert res.n_paths == 30_000
        assert res.snap_distance == 0.0 and res.series_tail == 0.0
        assert _second_moment_z(res.samples, 0.5)[0] == pytest.approx(0.5, rel=0.05)


def _runner_z(vals, target):
    """Reference: the one-column z-test written out with scalar math calls."""
    mc = float(np.mean(vals**2))
    e = math.frexp(float(np.max(np.abs(vals))))[1]
    sq = np.ldexp(vals, -e) ** 2
    se = float(np.std(sq, ddof=1) / math.sqrt(len(vals)))
    gap = float(np.mean(sq)) - math.ldexp(target, -2 * e)
    z = 0.0 if gap == 0.0 else gap / se if se else math.copysign(math.inf, gap)
    return mc, z


class TestSecondMomentZ:
    def test_bit_equal_to_the_runner_expression(self):
        # columns of a 2-D array, as the runner reads terminal[:, j]
        vals = np.random.default_rng(5).standard_normal((2001, 3)) * [0.7, 3.0, 1e-3]
        for j, target in enumerate((0.5, 9.5, 1e-6)):
            mc, _, z = _second_moment_z(vals[:, j], target)
            assert (float(mc), float(z)) == _runner_z(vals[:, j], target)

    def test_z_is_invariant_under_powers_of_two(self):
        vals = np.random.default_rng(6).standard_normal((1500, 2))
        _, se, z = _second_moment_z(vals, [0.9, 1.1])
        for k in (-400, -30, 17, 498):  # 2**498 puts the values near 1e150
            _, se_k, z_k = _second_moment_z(vals * 2.0**k, np.array([0.9, 1.1]) * 4.0**k)
            assert np.array_equal(z_k, z)
            assert np.array_equal(se_k, se * 4.0**k)
        assert np.max(np.abs(vals * 2.0**498)) > 1e150

    def test_axis_zero_matches_columns(self):
        vals = np.random.default_rng(7).standard_normal((800, 4)) * [1.0, 2.0, 0.5, 8.0]
        target = np.array([1.0, 4.0, 0.25, 60.0])
        mc, se, z = _second_moment_z(vals, target)
        assert np.array_equal(mc, np.mean(vals**2, axis=0))
        for j in range(4):
            col = tuple(map(float, _second_moment_z(vals[:, j], target[j])))
            assert (mc[j], se[j], z[j]) == pytest.approx(col, rel=1e-12, abs=1e-12)

    def test_zero_spread_passes_only_on_target(self):
        # all-zero paths match a zero target and fail a positive one outright
        mc, se, z = _second_moment_z(np.zeros((50, 3)), np.array([0.0, 1.0, 1e-300]))
        assert not np.any(mc) and not np.any(se)
        assert z.tolist() == [0.0, -math.inf, -math.inf]
        assert tuple(_runner_z(np.zeros(50), 1.0)) == (0.0, -math.inf)
        # equal nonzero samples: se is 0, the sign follows mc - target
        _, _, z = _second_moment_z(np.full((20, 3), 2.0), np.array([4.0, 3.0, 5.0]))
        assert z.tolist() == [0.0, math.inf, -math.inf]

    @pytest.mark.parametrize("shape", [(1,), (1, 4)])
    def test_one_sample_is_refused(self, shape):
        with pytest.raises(ValueError, match="at least two samples"):
            _second_moment_z(np.ones(shape), 1.0)


class TestIsometryReport:
    def test_unit_indicator_anchor_gaussian(self):
        with worker_threads(4):
            ens = simulate_fbm(FracParams.fbm(0.75), GRID_F, 30_000, seed=205)
        rep = isometry_report(StepFunction.indicator(0.0, 1.0), ens)
        assert rep.dh_norm_sq == pytest.approx(1.0, rel=1e-6)
        assert abs(rep.z_score) <= 3.0

    def test_unit_indicator_anchor_second_chaos(self, rosenblatt_ensemble):
        rep = isometry_report(StepFunction.indicator(0.0, 1.0), rosenblatt_ensemble)
        assert rep.dh_norm_sq == pytest.approx(1.0, rel=1e-6)
        assert abs(rep.z_score) <= 3.0

    def test_random_integrand_second_chaos(self, rosenblatt_ensemble):
        """isometry_report on a second-chaos driver, against the hermite_covariance oracle.

        The z-test uses the exact variance w^T Cov w of the discrete object,
        so z measures sampling error only; its gap to the analytic norm is
        discretization bias, bounded deterministically.
        """
        f = random_grid_step(np.random.default_rng(99), GRID_R)
        rep = isometry_report(f, rosenblatt_ensemble)
        idx = np.searchsorted(GRID_R.nodes, f.breakpoints)
        w = np.zeros(GRID_R.n_steps + 1)
        np.add.at(w, idx[1:], f.values)
        np.subtract.at(w, idx[:-1], f.values)
        cov = hermite_covariance(rosenblatt_ensemble.params, GRID_R.nodes, ROSENBLATT_ISO)
        discrete = w @ cov @ w
        assert abs((rep.mc_var - discrete) / rep.se_var) <= 3.0
        assert abs(rep.dh_norm_sq - discrete) / discrete < 0.05

    def test_zero_integrand_reports_zero(self, fbm_ensembles):
        rep = isometry_report(StepFunction.empty(), fbm_ensembles[0.5])
        assert rep.mc_var == 0.0 and rep.dh_norm_sq == 0.0 and rep.z_score == 0.0

    def test_driver_agnostic_grid(self, fbm_ensembles, rosenblatt_ensemble):
        # {fBm at 0.3/0.5/0.7, second-chaos at 0.7} x 10 random integrands;
        # the isometry is a covariance statement, so non-Gaussian drivers
        # must pass at the same rate
        rng = np.random.default_rng(77)
        ensembles = [fbm_ensembles[0.3], fbm_ensembles[0.5], fbm_ensembles[0.7], rosenblatt_ensemble]
        z = []
        for ens in ensembles:
            for _ in range(10):
                z.append(isometry_report(random_grid_step(rng, ens.grid), ens).z_score)
        inside = sum(abs(v) <= 3.0 for v in z)
        assert inside >= math.ceil(0.95 * len(z))

    def test_record_round_trip(self, fbm_ensembles):
        # the isometry kind writes these fields; z is (mc_var - dh_norm_sq) / SE
        rep = isometry_report(StepFunction.indicator(0.0, 1.0), fbm_ensembles[0.7])
        rec = dataclasses.asdict(rep)
        assert json.loads(json.dumps(rec)) == rec
        assert set(rec) == {"mc_var", "dh_norm_sq", "z_score", "se_var", "n_paths"}
        assert rep.z_score == pytest.approx((rep.mc_var - rep.dh_norm_sq) / rep.se_var, rel=1e-12)


class TestCylindricalIntegral:
    def test_single_live_column_reduces_to_elementary(self):
        cyl = simulate_cylindrical(FracParams.fbm(0.6), GRID_F, 3, 2000, seed=17)
        f = StepFunction.indicator(0.0, 0.75)
        op = HSOperator((StepFunction.empty(), f, StepFunction.empty()))
        res = cylindrical_integral(op, cyl)
        direct = elementary_integral(f, cyl.components[1])
        assert np.array_equal(res.samples, direct.samples)

    def test_orthogonal_unit_columns_add_variances(self):
        with worker_threads(4):
            cyl = simulate_cylindrical(FracParams.fbm(0.6), GRID_F, 3, 20_000, seed=206)
        op = HSOperator(tuple(StepFunction.indicator(0.0, 1.0) for _ in range(3)))
        res = cylindrical_integral(op, cyl)
        assert op.hs_norm_sq(cyl.components[0].params) == pytest.approx(3.0, rel=1e-6)
        assert abs(_second_moment_z(res.samples, 3.0)[2]) < 4
        # equal column norms never decay, so no finite tail estimate exists
        assert res.series_tail == math.inf

    def test_geometric_columns_tail_bound(self):
        r = 0.5
        params = FracParams.fbm(0.6)
        cols4 = tuple(StepFunction.indicator(0.0, 1.0).scaled(r**k) for k in range(4))
        cols8 = tuple(StepFunction.indicator(0.0, 1.0).scaled(r**k) for k in range(8))
        op4, op8 = HSOperator(cols4), HSOperator(cols8)
        cyl = simulate_cylindrical(params, GRID_F, 4, 3000, seed=19)
        tail = cylindrical_integral(op4, cyl).series_tail
        growth = op8.hs_norm_sq(params) - op4.hs_norm_sq(params)
        assert 0.0 < growth < tail
        assert tail == pytest.approx(r**6 * r**2 / (1 - r**2), rel=1e-6)

    def test_dimension_mismatch_rejected(self):
        cyl = simulate_cylindrical(FracParams.fbm(0.6), GRID_F, 2, 100, seed=1)
        op = HSOperator((StepFunction.indicator(0.0, 1.0),) * 3)
        with pytest.raises(ValueError, match="components"):
            cylindrical_integral(op, cyl)

    def test_operator_validation(self):
        with pytest.raises(ValueError):
            HSOperator(())
        with pytest.raises(ValueError):
            HSOperator((1.0, 2.0))


class TestMomentEquivalence:
    def test_gaussian_integral_ratio(self, fbm_ensembles):
        f = random_grid_step(np.random.default_rng(5), GRID_F)
        res = elementary_integral(f, fbm_ensembles[0.7])
        ratio = moment_ratio(res.samples, 4, 2)
        assert ratio <= 3.0**0.25 * 1.05

    def test_second_chaos_integral_ratio(self, rosenblatt_ensemble):
        f = random_grid_step(np.random.default_rng(6), GRID_R)
        res = elementary_integral(f, rosenblatt_ensemble)
        ratio = moment_ratio(res.samples, 4, 2)
        assert ratio <= 3.0 * 1.05


class TestGammaNormLp:
    def test_single_node_anchor(self):
        params = FracParams.fbm(0.6)
        field = LpKernelField(
            nodes=[0.0],
            weights=[1.0],
            kernels=((StepFunction.indicator(0.0, 0.7),),),
            p=2.0,
            params=params,
        )
        assert gamma_norm_lp(field) == pytest.approx(0.7**0.6, rel=1e-6)

    def test_constant_field_unit_measure(self):
        params = FracParams.fbm(0.4)
        a0 = (StepFunction.indicator(0.0, 1.0).scaled(0.8),)
        field = LpKernelField(
            nodes=np.linspace(0, 1, 4),
            weights=np.full(4, 0.25),
            kernels=(a0,) * 4,
            p=3.0,
            params=params,
        )
        expect = integrand_norm(a0[0], 0.4)
        assert gamma_norm_lp(field) == pytest.approx(expect, rel=1e-6)

    def test_orthonormal_components_pythagoras(self):
        # two unit-norm components per node: the stationary-increment norm
        # of a shifted unit indicator is 1 for every H
        params = FracParams.fbm(0.7)
        kern = (StepFunction.indicator(0.0, 1.0), StepFunction.indicator(1.0, 2.0))
        assert integrand_norm(kern[1], 0.7) == pytest.approx(1.0, rel=1e-6)
        field = LpKernelField(
            nodes=[0.0, 1.0], weights=[0.5, 0.5], kernels=(kern, kern), p=2.0, params=params
        )
        assert field.kernel_norms() == pytest.approx([math.sqrt(2)] * 2, rel=1e-6)
        assert gamma_norm_lp(field) == pytest.approx(math.sqrt(2), rel=1e-6)

    def test_validation(self):
        params = FracParams.fbm(0.6)
        kern = ((StepFunction.indicator(0.0, 1.0),),)
        with pytest.raises(ValueError):
            LpKernelField([0.0], [1.0], kern, 0.5, params)
        with pytest.raises(ValueError):
            LpKernelField([0.0, 1.0], [1.0], kern, 2.0, params)
        with pytest.raises(ValueError):
            LpKernelField(
                [0.0, 1.0],
                [0.5, 0.5],
                (kern[0], (StepFunction.indicator(0.0, 1.0),) * 2),
                2.0,
                params,
            )


class TestConditionSingular:
    def test_zero_profile(self):
        assert condition_singular(lambda u: 0.0 * u, 0.3, 1.0) == 0.0

    @pytest.mark.parametrize("key", sorted(SINGULAR_ORACLE))
    def test_power_profile_matches_oracle(self, key):
        h, g, tau = key
        val = condition_singular(lambda u: u**-g, h, tau)
        assert val == pytest.approx(SINGULAR_ORACLE[key], rel=1e-4)

    def test_critical_power_diverges(self):
        # gamma = 1/2 at H = 0.3: the square integral blows up logarithmically
        assert condition_singular(lambda u: u**-0.5, 0.3, 1.0) == math.inf

    def test_supercritical_difference_term_diverges(self):
        assert condition_singular(lambda u: u**-0.35, 0.3, 1.0) == math.inf

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="hurst"):
            condition_singular(lambda u: u, 0.6, 1.0)
        with pytest.raises(ValueError, match="tau"):
            condition_singular(lambda u: u, 0.3, -1.0)


class TestDyadicSumCap:
    """At its shell cap, _dyadic_sum reads divergence by the rule of existence_report."""

    @staticmethod
    def _at_cap(last_ratios):
        # halving shells, then the given ratios; rtol 0 never stops the loop early
        terms = [1.0, 0.5, 0.25]
        for r in last_ratios:
            terms.append(terms[-1] * r)
        value = _dyadic_sum(lambda j: terms[j], len(terms), 0.0)[0]
        assert math.isinf(value) == _stops_decaying(terms)
        return value

    def test_extrapolated_ratio_reads_divergence(self):
        # the smaller ratio is below 0.95, but 2 * 0.94 - 0.90 = 0.98
        assert self._at_cap((0.90, 0.94)) == math.inf

    def test_decelerating_decay_reads_finite(self):
        # both ratios are above 0.95, but 2 * 0.97 - 0.99 = 0.95
        assert math.isfinite(self._at_cap((0.99, 0.97)))


class TestConditionRegular:
    def test_zero_profile(self):
        assert condition_regular(lambda u: np.zeros_like(u), 0.7, 1.0) == 0.0

    @pytest.mark.parametrize("key", sorted(REGULAR_ORACLE))
    def test_power_profile_matches_oracle(self, key):
        h, g, tau = key
        val = condition_regular(lambda u: u**-g, h, tau)
        assert val == pytest.approx(REGULAR_ORACLE[key], rel=0.01)

    def test_critical_power_diverges(self):
        assert condition_regular(lambda u: u**-0.7, 0.7, 1.0) == math.inf

    def test_supercritical_power_diverges(self):
        assert condition_regular(lambda u: u**-0.9, 0.7, 1.0) == math.inf

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="hurst"):
            condition_regular(lambda u: u, 0.3, 1.0)
        with pytest.raises(ValueError, match="tau"):
            condition_regular(lambda u: u, 0.7, 0.0)
