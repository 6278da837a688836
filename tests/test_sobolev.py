"""Tests for fractional Sobolev norms and the integrand norm.

Numeric oracles in this file were computed independently with mpmath at
50+ digits; where a value comes from quadrature, two unrelated schemes
(singularity-adapted tanh-sinh and a gamma-function closed form) agreed
below 1e-25 before the value was frozen.
"""
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma

from fracwiener import GridFunction, StepFunction, TimeGrid
from fracwiener import experiments as ex
from fracwiener import sobolev as sb

HURSTS = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9]

# transform constant c_H
C_H = {
    0.1: 2.79574999707706167,
    0.25: 1.54799239968133707,
    0.4: 1.1354273173693909,
    0.5: 1.0,
    0.6: 0.929363552097443431,
    0.75: 0.934889931897889216,
    0.9: 1.23271024016549427,
}

# ratio between the integrand norm and the order-(1/2-H) Sobolev norm
EQUIV_CONST = {
    0.1: 0.532662881291159029,
    0.25: 0.791616743543079769,
    0.4: 0.94116874393613007,
    0.5: 1.0,
    0.6: 1.0236583603045414,
    0.75: 0.969528546762097763,
    0.9: 0.719766729108989978,
}

# transform of 1_[0,1.5) evaluated at r = 0.6: (1/c_H) * 0.9^(H-1/2)
TRANSFORM_AT = {
    0.25: 0.663239752528301105,
    0.75: 1.04183788186487781,
}

# integrand norm of 1_[0,1) - 1_[1,2): sqrt(4 - 2^(2H)) by covariance expansion
TWO_STEP_NORM = {
    0.1: 1.68857977158408628,
    0.25: 1.60803807095071756,
    0.4: 1.50296336396059625,
    0.5: 1.41421356237309505,
    0.6: 1.30483841528594259,
    0.75: 1.08239220029239397,
    0.9: 0.719581647080790578,
}

# dh_norm_exponential(x, 1, H): sqrt(e^{-x} (1 - x/(2a) 1F1(1; a+1; -x)) + x^{-2H} gamma(a, x) / 2),
# a = 2H + 1, from mpmath's hyp1f1 and lower gammainc at 50 digits
MODE_NORM = {
    (0.01, 1e-12): 0.999999999999500000000000367681,
    (0.01, 1e-3): 0.999500367529180441355967369344,
    (0.01, 0.5): 0.825622507695206243328778791065,
    (0.01, 1.0): 0.749419317973469539715740800224,
    (0.01, 7.0): 0.689601715649446324139267087954,
    (0.01, 200.0): 0.666866096155027365601359164302,
    (0.01, 1e3): 0.656219207727874347843672382876,
    (0.01, 1e6): 0.612419397877632795257009310007,
    (0.1, 1e-12): 0.999999999999500000000000314404,
    (0.1, 1e-3): 0.999500314278431523803296867573,
    (0.1, 0.5): 0.815502289679670825015559300515,
    (0.1, 1.0): 0.719668665753575901504575069207,
    (0.1, 7.0): 0.557749229908125775168517649053,
    (0.1, 200.0): 0.398880912347482491271466485354,
    (0.1, 1e3): 0.339583245012925615704589477559,
    (0.1, 1e6): 0.170194787154200390091059153157,
    (0.4, 1e-12): 0.999999999999500000000000224216,
    (0.4, 1e-3): 0.99950022413592821877155336407,
    (0.4, 0.5): 0.798142524960980862888243379149,
    (0.4, 1.0): 0.66706529075980702287464964036,
    (0.4, 7.0): 0.313340868037775058979740952584,
    (0.4, 200.0): 0.0819666785577133649694794770123,
    (0.4, 1e3): 0.0430575520532920446687434457808,
    (0.4, 1e6): 0.00271674787033628366266503161943,
    (0.75, 1e-12): 0.999999999999500000000000182153,
    (0.75, 1e-3): 0.999500182093462802326333529998,
    (0.75, 0.5): 0.789959525866750614414348165874,
    (0.75, 1.0): 0.641604869353143553433705709102,
    (0.75, 7.0): 0.189405891290190852513846689739,
    (0.75, 200.0): 0.0153295923216064782960548171621,
    (0.75, 1e3): 0.0045846174389464856004765597778,
    (0.75, 1e6): 2.57811984610795103013152838466e-5,
    (0.99, 1e-12): 0.999999999999500000000000167167,
    (0.99, 1e-3): 0.9995001671151907147594490734,
    (0.99, 0.5): 0.787034467697022704781574061136,
    (0.99, 1.0): 0.632421810313839562934258296233,
    (0.99, 7.0): 0.144206817566185116206770277794,
    (0.99, 200.0): 0.00522384039524820861800890922165,
    (0.99, 1e3): 0.00106171901410137113545382656415,
    (0.99, 1e6): 1.13765242034745771964205360888e-6,
}

GAMMA_THREE_QUARTER = 1.22541670246517765
GAMMA_FIVE_QUARTER = 0.906402477055477078


def random_step(rng, n_max=8, span=4.0):
    n = int(rng.integers(2, n_max + 1))
    bp = np.sort(rng.uniform(-span / 2, span / 2, size=n + 1))
    bp = bp + np.arange(n + 1) * 1e-3  # separation keeps conditioning sane
    return StepFunction(bp, rng.normal(size=n))


def covariance_norm(f, h, sigma=1.0):
    """The integrand norm by the covariance route, the independent oracle of ``integrand_norm``."""
    return float(np.sqrt(max(sb.integrand_inner(f, f, h, sigma), 0.0)))


def transform_sq(f, h):
    """The squared tail transform as a function of r, anchored at the first edge right of r."""
    taus, sq_at = sb._transform_sq(f, h)

    def sq(r):
        k = bisect_right(taus, r)
        return 0.0 if k == len(taus) else sq_at(k, taus[k] - r)

    return sq


@st.composite
def step_functions(draw, max_pieces=6):
    n = draw(st.integers(min_value=1, max_value=max_pieces))
    idx = draw(
        st.lists(st.integers(min_value=-64, max_value=64), min_size=n + 1, max_size=n + 1, unique=True)
    )
    bp = np.sort(np.asarray(idx, dtype=float)) / 16.0
    vals = draw(
        st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False, width=32),
            min_size=n,
            max_size=n,
        )
    )
    return StepFunction(bp, np.asarray(vals, dtype=float))


orders = st.floats(min_value=-0.45, max_value=0.45, allow_nan=False)


class TestCosineTailConstant:
    def test_known_values(self):
        """The constant of the sobolev_norm_step oracle, at its closed forms."""
        assert sb.cosine_tail_constant(1.0) == pytest.approx(np.pi / 2, rel=1e-14)
        assert sb.cosine_tail_constant(0.5) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-14)

    @pytest.mark.parametrize("a", [0.0, 2.0, -0.5, 3.0])
    def test_domain(self, a):
        with pytest.raises(ValueError):
            sb.cosine_tail_constant(a)


class TestTransformConstant:
    @pytest.mark.parametrize("h", HURSTS)
    def test_frozen_values(self, h):
        assert sb.transform_constant(h) == pytest.approx(C_H[h], rel=1e-13)

    def test_identity_regime(self):
        assert sb.transform_constant(0.5) == 1.0

    def test_positive_on_grid(self):
        for h in np.linspace(0.05, 0.95, 9):
            c = sb.transform_constant(float(h))
            assert np.isfinite(c) and c > 0

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.4])
    def test_domain(self, h):
        with pytest.raises(ValueError):
            sb.transform_constant(h)


class TestNormEquivalenceConstant:
    @pytest.mark.parametrize("h", HURSTS)
    def test_frozen_values(self, h):
        assert sb.norm_equivalence_constant(h) == pytest.approx(EQUIV_CONST[h], rel=1e-13)

    def test_gamma_relation(self):
        # the constant times c_H is the gamma function at H + 1/2
        assert sb.norm_equivalence_constant(0.75) * sb.transform_constant(0.75) == pytest.approx(
            GAMMA_FIVE_QUARTER, rel=1e-9
        )
        assert sb.norm_equivalence_constant(0.25) * sb.transform_constant(0.25) == pytest.approx(
            GAMMA_THREE_QUARTER, rel=1e-9
        )

    def test_identity_regime_and_scaling(self):
        assert sb.norm_equivalence_constant(0.5) == 1.0
        assert sb.norm_equivalence_constant(0.5, sigma=2.5) == 2.5
        assert sb.norm_equivalence_constant(0.3, sigma=3.0) == pytest.approx(
            3.0 * sb.norm_equivalence_constant(0.3), rel=1e-13
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            sb.norm_equivalence_constant(0.3, sigma=0.0)
        with pytest.raises(ValueError):
            sb.norm_equivalence_constant(1.2)


class TestFractionalTransform:
    """The squared tail transform that the transform route of integrand_norm integrates."""

    def test_identity_at_half(self):
        f = StepFunction(np.array([0.0, 1.0, 2.0]), np.array([1.5, -0.5]))
        sq = transform_sq(f, 0.5)
        for r in (-1.0, 0.5, 1.5, 2.5):
            assert sq(r) == pytest.approx(float(f(r)) ** 2, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("h", [0.25, 0.75])
    def test_indicator_point_value(self, h):
        # transform of 1_[0,1.5) strictly inside the support
        f = StepFunction.indicator(0.0, 1.5)
        assert transform_sq(f, h)(0.6) == pytest.approx(TRANSFORM_AT[h] ** 2, rel=1e-12)

    def test_support_structure(self):
        sq = transform_sq(StepFunction.indicator(0.0, 1.0), 0.75)
        assert sq(1.1) == 0.0  # nothing to the right of the last edge
        assert sq(-0.5) > 0.0  # long left tail for H > 1/2

    def test_blowup_side_for_rough_regime(self):
        sq = transform_sq(StepFunction.indicator(0.0, 1.0), 0.25)
        # (1 - r)^(H - 1/2) explodes as r -> 1 from the left
        assert sq(1.0 - 1e-8) > 1e2
        assert sq(1.1) == 0.0

    def test_linearity(self):
        # pointwise parallelogram law: K(f+g)^2 + K(f-g)^2 = 2 (Kf)^2 + 2 (Kg)^2
        rng = np.random.default_rng(3)
        f, g = random_step(rng), random_step(rng)
        h = 0.3
        sq_f, sq_g = transform_sq(f, h), transform_sq(g, h)
        sq_sum, sq_diff = transform_sq(f + g, h), transform_sq(f - g, h)
        for r in np.linspace(-2.5, 2.5, 41):
            lhs = sq_sum(r) + sq_diff(r)
            rhs = 2.0 * sq_f(r) + 2.0 * sq_g(r)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_empty(self):
        sq = transform_sq(StepFunction.empty(), 0.3)
        assert all(sq(r) == 0.0 for r in (-1.0, 0.0, 1.0))


class TestIntegrandNorm:
    @pytest.mark.parametrize("h", HURSTS)
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_indicator_anchor_transform_route(self, h, t):
        f = StepFunction.indicator(0.0, t)
        assert sb.integrand_norm(f, h) == pytest.approx(t**h, rel=1e-13)

    @pytest.mark.parametrize("h", HURSTS)
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_indicator_anchor_covariance_route(self, h, t):
        f = StepFunction.indicator(0.0, t)
        assert covariance_norm(f, h) == pytest.approx(t**h, rel=1e-12)

    @pytest.mark.parametrize("h", HURSTS)
    def test_two_step_value(self, h):
        f = StepFunction(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0]))
        assert covariance_norm(f, h) == pytest.approx(TWO_STEP_NORM[h], rel=1e-12)
        assert sb.integrand_norm(f, h) == pytest.approx(TWO_STEP_NORM[h], rel=1e-13)

    @pytest.mark.parametrize("h", [0.25, 0.75, 0.1, 0.4, 0.6, 0.9])
    def test_routes_agree_on_random_steps(self, h):
        rng = np.random.default_rng(42)
        for _ in range(6):
            f = random_step(rng)
            a = sb.integrand_norm(f, h)
            b = covariance_norm(f, h)
            assert a == pytest.approx(b, rel=1e-12)

    def test_routes_agree_to_1e10_on_norm_identity_draws(self):
        # the step functions of norm-identity runs at config seeds 3 and 10
        # (six per H, in run order) on 256 steps, from t_end = 1e-100 to 1e100
        # and at H near 0 and 1: the norm is self-similar, so the transform
        # route may not drift with the time scale, and its digits hold in the
        # left tail, at the edge blow-ups and where the shells shrink slowly
        hursts = (0.005, 0.02, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 0.98, 0.995)
        for t_end in (1e-100, 1e-5, 1.0, 1e5, 1e100):
            grid = TimeGrid(0.0, t_end / 256, 256)
            for pieces in (4, 6):
                for seed in (3, 10):
                    rng = ex._aux_rng(seed, 0)
                    for h in hursts:
                        for _ in range(6):
                            f = ex._aligned_step(rng, grid, pieces)
                            a = sb.integrand_norm(f, h)
                            b = covariance_norm(f, h)
                            assert a == pytest.approx(b, rel=1e-12, abs=0.0), (t_end, pieces, seed, h)

    def test_sigma_scaling_and_zero(self):
        f = StepFunction.indicator(0.0, 1.0)
        assert sb.integrand_norm(f, 0.3, sigma=2.5) == pytest.approx(
            2.5 * sb.integrand_norm(f, 0.3), rel=1e-13
        )
        assert covariance_norm(f, 0.3, sigma=2.5) == pytest.approx(
            2.5 * covariance_norm(f, 0.3), rel=1e-13
        )
        assert sb.integrand_norm(StepFunction.empty(), 0.3) == 0.0
        assert covariance_norm(StepFunction.empty(), 0.3) == 0.0


class TestSingularInnerProduct:
    @pytest.mark.parametrize("sigma", [1.0, 1.7])
    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    def test_unit_indicator(self, h, sigma):
        """The singular-kernel oracle on the indicator anchor of the isometry."""
        f = StepFunction.indicator(0.0, 1.0)
        assert sb.singular_inner_product(f, f, h, sigma) == pytest.approx(sigma**2, rel=1e-13)

    def test_disjoint_indicators_match_covariance(self):
        """Checks integrand_inner, the covariance route of the mode norms and gamma norms."""
        f = StepFunction.indicator(0.0, 1.0)
        g = StepFunction.indicator(2.0, 3.0)
        for h in (0.6, 0.9):
            assert sb.singular_inner_product(f, g, h) == pytest.approx(
                sb.integrand_inner(f, g, h), rel=1e-12
            )

    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    def test_calibration_against_transform_route(self, h):
        """Checks the transform route of integrand_norm (norm-identity, isometry).

        The H(2H-1) prefactor is exactly what matches the squared norm.
        """
        rng = np.random.default_rng(9)
        for _ in range(5):
            f = random_step(rng)
            quad_form = sb.singular_inner_product(f, f, h)
            norm = sb.integrand_norm(f, h)
            assert quad_form == pytest.approx(norm**2, rel=1e-4)

    def test_zero_and_domain(self):
        """The singular-kernel oracle's own domain, H > 1/2."""
        f = StepFunction.indicator(0.0, 1.0)
        assert sb.singular_inner_product(StepFunction.empty(), f, 0.75) == 0.0
        with pytest.raises(ValueError):
            sb.singular_inner_product(f, f, 0.4)


class TestStepNorm:
    """sobolev_norm_step, the exact oracle that sobolev_norm_fourier (norm-identity) is checked against."""

    @given(f=step_functions(), sv=orders)
    @settings(max_examples=60, deadline=None)
    def test_scaling_homogeneity(self, f, sv):
        base = sb.sobolev_norm_step(f, sv)
        assert sb.sobolev_norm_step(f.scaled(-2.5), sv) == pytest.approx(2.5 * base, rel=1e-9, abs=1e-12)

    @given(f=step_functions(), c=st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, f, c):
        sv = 0.2
        shifted = f.precompose_affine(1.0, c)
        assert sb.sobolev_norm_step(shifted, sv) == pytest.approx(
            sb.sobolev_norm_step(f, sv), rel=1e-9, abs=1e-12
        )

    @given(f=step_functions(), g=step_functions(), sv=orders)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, f, g, sv):
        lhs = sb.sobolev_norm_step(f + g, sv)
        rhs = sb.sobolev_norm_step(f, sv) + sb.sobolev_norm_step(g, sv)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12

    @given(f=step_functions())
    @settings(max_examples=60, deadline=None)
    def test_order_zero_is_l2(self, f):
        assert sb.sobolev_norm_step(f, 0.0) == pytest.approx(f.l2_norm(), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("h", HURSTS)
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_unit_identity(self, h, t):
        # the equivalence constant times the Sobolev norm is the integrand norm
        f = StepFunction.indicator(0.0, t)
        val = sb.norm_equivalence_constant(h) * sb.sobolev_norm_step(f, 0.5 - h)
        assert val == pytest.approx(t**h, rel=1e-10)

    def test_empty(self):
        assert sb.sobolev_norm_step(StepFunction.empty(), 0.3) == 0.0


def _aligned_step(rng, grid, n_edges=7):
    idx = np.sort(rng.choice(np.arange(grid.n_steps + 1), size=n_edges, replace=False))
    while idx.size < 2:
        idx = np.sort(rng.choice(np.arange(grid.n_steps + 1), size=n_edges, replace=False))
    return StepFunction(grid.nodes[idx], rng.normal(size=idx.size - 1))


class TestFourierNorm:
    def test_zero(self):
        grid = TimeGrid(0.0, 0.125, 16)
        assert sb.sobolev_norm_fourier(GridFunction(grid, np.zeros(16)), 0.3) == 0.0

    def test_plancherel(self):
        rng = np.random.default_rng(1)
        grid = TimeGrid(-1.0, 2.0 / 256, 256)
        for _ in range(3):
            f = GridFunction(grid, rng.normal(size=256))
            assert sb.sobolev_norm_fourier(f, 0.0) == pytest.approx(f.l2_norm(), rel=1e-6)

    @pytest.mark.parametrize("h", HURSTS)
    def test_matches_exact_step_norm(self, h):
        """sobolev_norm_fourier (norm-identity) against the sobolev_norm_step oracle."""
        sv = 0.5 - h
        rng = np.random.default_rng(100 + int(h * 100))
        grid = TimeGrid(0.0, 1.0 / 256, 256)
        for _ in range(3):
            f = _aligned_step(rng, grid)
            exact = sb.sobolev_norm_step(f, sv)
            approx = sb.sobolev_norm_fourier(f.to_grid(grid), sv)
            assert approx == pytest.approx(exact, rel=3e-4)

    def test_unitary_convention_anchor(self):
        """sobolev_norm_fourier (norm-identity) against the cosine tail constant.

        The squared norm of a unit indicator is (2/pi) times that constant.
        """
        grid = TimeGrid(0.0, 1.0 / 128, 128)
        f = StepFunction.indicator(0.0, 1.0).to_grid(grid)
        for sv in (-0.3, 0.2):
            pred = np.sqrt(2.0 / np.pi * sb.cosine_tail_constant(1.0 - 2.0 * sv))
            assert sb.sobolev_norm_fourier(f, sv) == pytest.approx(pred, rel=1e-4)

    def test_complex_samples_rejected(self):
        # grid data is real; a cast would silently drop the imaginary part
        grid = TimeGrid(0.0, 0.25, 4)
        with pytest.raises(ValueError, match="real"):
            GridFunction(grid, np.ones(4) * (1.0 + 2.0j))
        with pytest.raises(ValueError, match="real"):
            GridFunction(grid, np.ones(4, dtype=complex))

    def test_order_domain(self):
        grid = TimeGrid(0.0, 0.25, 4)
        with pytest.raises(ValueError):
            sb.sobolev_norm_fourier(GridFunction(grid, np.ones(4)), 0.6)


class TestGagliardoNorm:
    """sobolev_norm_gagliardo, the difference-quotient oracle for sobolev_norm_fourier (norm-identity)."""

    @pytest.mark.parametrize("sv", [0.1, 0.25, 0.4])
    def test_indicator_line_oracle(self, sv):
        # closed form for the whole-line double integral of a unit indicator
        grid = TimeGrid(0.0, 1.0 / 128, 128)
        f = StepFunction.indicator(0.0, 1.0).to_grid(grid)
        val = sb.sobolev_norm_gagliardo(f, sv, domain="line") ** 2
        assert val == pytest.approx(2.0 / (sv * (1.0 - 2.0 * sv)), rel=1e-9)

    def test_constant_window_has_zero_seminorm(self):
        grid = TimeGrid(0.0, 0.25, 8)
        f = GridFunction(grid, np.full(8, 1.3))
        val = sb.sobolev_norm_gagliardo(f, 0.25, domain="window")
        assert val == pytest.approx(f.l2_norm(), rel=1e-12)

    def test_refinement_stable_for_aligned_steps(self):
        rng = np.random.default_rng(12)
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        f = _aligned_step(rng, grid)
        v1 = sb.sobolev_norm_gagliardo(f.to_grid(grid), 0.25, domain="line")
        fine = TimeGrid(0.0, grid.dt / 2, 128)
        v2 = sb.sobolev_norm_gagliardo(f.to_grid(fine), 0.25, domain="line")
        assert v1 == pytest.approx(v2, rel=1e-10)

    @pytest.mark.parametrize("sv", [0.1, 0.25, 0.4])
    def test_equivalence_ratio_to_fourier(self, sv):
        # on the whole line the two norms differ by an exact constant
        rng = np.random.default_rng(13)
        grid = TimeGrid(0.0, 1.0 / 128, 128)
        pred = np.sqrt(4.0 * sb.cosine_tail_constant(2.0 * sv))
        ratios = []
        for _ in range(8):
            f = _aligned_step(rng, grid)
            gag = sb.sobolev_norm_gagliardo(f.to_grid(grid), sv, domain="line")
            exact = sb.sobolev_norm_step(f, sv)
            ratios.append(gag / exact)
            assert gag / exact == pytest.approx(pred, rel=1e-6)
        ratios = np.asarray(ratios)
        assert np.std(ratios) / np.mean(ratios) < 0.02

    def test_domain_validation(self):
        grid = TimeGrid(0.0, 0.25, 4)
        f = GridFunction(grid, np.ones(4))
        with pytest.raises(ValueError):
            sb.sobolev_norm_gagliardo(f, -0.2)
        with pytest.raises(ValueError):
            sb.sobolev_norm_gagliardo(f, 0.25, domain="circle")


class TestExponentialKernelNorm:
    @pytest.mark.parametrize("h", [0.25, 0.5, 0.75])
    def test_zero_rate_is_indicator(self, h):
        assert sb.dh_norm_exponential(0.0, 2.0, h) == pytest.approx(2.0**h, rel=1e-13)

    def test_brownian_closed_form(self):
        lam, t = 3.0, 1.5
        pred = np.sqrt((1.0 - np.exp(-2.0 * lam * t)) / (2.0 * lam))
        assert sb.dh_norm_exponential(lam, t, 0.5) == pytest.approx(pred, rel=1e-13)

    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("lam", [0.5, 4.0])
    def test_against_double_integral_route(self, h, lam):
        """dh_norm_exponential (mode_norm, spde-distributed's expected_second_moment) for H > 1/2.

        dh_norm_smooth is the only independent check of it there.
        """
        t = 1.0
        a = sb.dh_norm_exponential(lam, t, h)
        b = sb.dh_norm_smooth(lambda v: np.exp(-lam * (t - v)), t, h)
        assert a == pytest.approx(b, rel=1e-8)

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.75])
    @pytest.mark.parametrize("lam", [0.5, 4.0])
    def test_against_by_parts_quadrature(self, h, lam):
        """The closed form for every H, against Var(B_t - lam int_0^t e^{-lam(t-s)} B_s ds).

        The variance is expanded in R_H and integrated by nested quadrature,
        the inner integral split at the kink u = s of |s - u|^{2H}.
        """
        t = 1.0

        def r(s, u):
            return 0.5 * (s ** (2 * h) + u ** (2 * h) - abs(s - u) ** (2 * h))

        opts = dict(epsabs=1e-14, epsrel=1e-12, limit=200)

        def inner(s):
            f = lambda u: np.exp(-lam * (t - u)) * r(s, u)
            return quad(f, 0.0, s, **opts)[0] + quad(f, s, t, **opts)[0]

        cross = quad(lambda s: np.exp(-lam * (t - s)) * r(s, t), 0.0, t, **opts)[0]
        double = quad(lambda s: np.exp(-lam * (t - s)) * inner(s), 0.0, t, **opts)[0]
        var = t ** (2 * h) - 2.0 * lam * cross + lam**2 * double
        assert sb.dh_norm_exponential(lam, t, h) == pytest.approx(np.sqrt(var), rel=1e-8)
        # lam t = 200, and 1e150 past the cap of lam t at 1e3:
        # the stationary fOU variance H Gamma(2H) lam^{-2H}
        stationary = h * gamma(2 * h) * lam ** (-2 * h)
        for x in (200.0, 1e150):
            assert sb.dh_norm_exponential(lam, x / lam, h) ** 2 == pytest.approx(
                stationary, rel=1e-12
            )

    @pytest.mark.parametrize("key", sorted(MODE_NORM))
    def test_against_mpmath_closed_form(self, key):
        h, x = key
        assert sb.dh_norm_exponential(x, 1.0, h) == pytest.approx(MODE_NORM[key], rel=1e-13)

    @pytest.mark.parametrize("lam, t, h", [(1e300, 1e10, 0.7), (1e10, 1e300, 0.3), (2.0, np.inf, 0.6)])
    def test_overflowing_rate_time_keeps_the_stationary_limit(self, lam, t, h):
        # lam t is inf in floats: the norm is still the stationary one, not nan
        stationary = np.sqrt(h * gamma(2 * h)) * lam**-h
        assert sb.dh_norm_exponential(lam, t, h) == pytest.approx(stationary, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("h", [0.7, 0.99])
    def test_huge_rate_keeps_the_stationary_limit(self, h):
        # at lam = 1e300, t = 1 the factor x^{-2H} of the Gamma tail underflows
        # (to 0, or subnormal at H = 0.99); lam^{-H} H Gamma(2H)^{1/2} does not
        stationary = np.sqrt(h * gamma(2 * h)) * 1e300**-h
        assert stationary > 0.0
        got = sb.dh_norm_exponential(1e300, 1.0, h)
        assert got == pytest.approx(stationary, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("h", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("x", [1e-6, 3.2e-5, 1e-3])
    def test_small_rate_expansion(self, h, x):
        # ||.|| = t^H (1 - lam t / 2 + O((lam t)^2)) for small lam t, H near 1 included
        assert sb.dh_norm_exponential(x / 2.0, 2.0, h) / 2.0**h == pytest.approx(
            1.0 - 0.5 * x, abs=x * x
        )

    @pytest.mark.parametrize("h", [0.25, 0.4, 0.75])
    def test_small_rate_continuity(self, h):
        assert sb.dh_norm_exponential(1e-9, 2.0, h) == pytest.approx(2.0**h, rel=5e-5)

    def test_rough_regime_against_step_approximation(self):
        h, lam, t = 0.3, 2.0, 1.0
        grid = TimeGrid(0.0, t / 4096, 4096)
        samples = np.exp(-lam * (t - grid.cell_midpoints))
        approx = sb.norm_equivalence_constant(h) * sb.sobolev_norm_fourier(
            GridFunction(grid, samples), 0.5 - h
        )
        assert sb.dh_norm_exponential(lam, t, h) == pytest.approx(approx, rel=1e-3)

    def test_degenerate_and_domain(self):
        assert sb.dh_norm_exponential(1.0, 0.0, 0.3) == 0.0
        with pytest.raises(ValueError):
            sb.dh_norm_exponential(-1.0, 1.0, 0.3)
        with pytest.raises(ValueError):
            sb.dh_norm_smooth(lambda v: v, 1.0, 0.3)

    def test_smooth_route_brownian_case(self):
        """The dh_norm_smooth oracle at H = 1/2, where both routes have a closed form."""
        lam, t = 1.0, 2.0
        pred = np.sqrt((1.0 - np.exp(-2.0 * lam * t)) / (2.0 * lam))
        val = sb.dh_norm_smooth(lambda v: np.exp(-lam * (t - v)), t, 0.5)
        assert val == pytest.approx(pred, rel=1e-10)


class TestMeshAveraging:
    def test_preserves_integral(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            f = random_step(rng)
            mf = sb.mesh_average_step(f, rng.uniform(-1, 1), rng.uniform(0.05, 1.5))
            got = np.sum(mf.values * np.diff(mf.breakpoints))
            want = np.sum(f.values * np.diff(f.breakpoints))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_projection_fixed_point(self):
        # already constant on the decomposition -> unchanged
        f = StepFunction(0.3 + 0.5 * np.arange(4), np.array([1.0, -2.0, 0.5]))
        mf = sb.mesh_average_step(f, 0.3, 0.5)
        assert sb.sobolev_norm_step(mf - f, 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_shared_boundedness_constant(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            f = random_step(rng)
            sv = rng.uniform(-0.45, 0.45)
            a = rng.uniform(-1, 1)
            r = rng.uniform(0.05, 2.0)
            mf = sb.mesh_average_step(f, a, r)
            assert sb.sobolev_norm_step(mf, sv) <= 1.5 * sb.sobolev_norm_step(f, sv)

    def test_dyadic_convergence(self):
        rng = np.random.default_rng(5)
        f = random_step(rng)
        sv = -0.25
        den = sb.sobolev_norm_step(f, sv)
        vals = [
            sb.sobolev_norm_step(sb.mesh_average_step(f, 0.13, 2.0**-m) - f, sv) / den
            for m in range(11)
        ]
        assert all(vals[i + 1] < vals[i] + 1e-12 for i in range(10))
        assert vals[-1] < 1e-2

    def test_convergence_trend_near_upper_order(self):
        # close to s = 1/2 the rate degrades; assert the decreasing trend only
        rng = np.random.default_rng(5)
        f = random_step(rng)
        sv = 0.4
        vals = [
            sb.sobolev_norm_step(sb.mesh_average_step(f, 0.13, 2.0**-m) - f, sv)
            for m in range(11)
        ]
        assert vals[-1] < 0.7 * vals[0]

    def test_grid_route_matches_step_route_when_aligned(self):
        # mesh edges on grid nodes: each mesh interval is 8 whole cells,
        # so the interval means are plain block means of the cell samples
        grid = TimeGrid(0.0, 1.0 / 32, 64)
        rng = np.random.default_rng(30)
        f = _aligned_step(rng, grid)
        blocks = f.to_grid(grid).samples.reshape(-1, 8).mean(axis=1)
        ref = sb.mesh_average_step(f, 0.0, 0.25)
        assert np.allclose(np.repeat(blocks, 8), ref(grid.cell_midpoints), rtol=1e-12, atol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            sb.mesh_average_step(StepFunction.indicator(0.0, 1.0), 0.0, 0.0)


class TestAffineRescaling:
    def test_identity_and_reflection(self):
        f = StepFunction(np.array([0.0, 0.4, 1.0]), np.array([2.0, -1.0]))
        lhs, rhs = sb.affine_norm_pair(f, 1.0, 0.0, 0.2)
        assert lhs == pytest.approx(rhs, rel=1e-13)
        lhs, rhs = sb.affine_norm_pair(f, -1.0, 0.0, 0.2)
        assert lhs == pytest.approx(sb.sobolev_norm_step(f, 0.2), rel=1e-12)
        assert rhs == pytest.approx(sb.sobolev_norm_step(f, 0.2), rel=1e-12)

    def test_dilated_indicator_ratio(self):
        f = StepFunction.indicator(0.0, 1.0)
        sv = -0.25
        lhs, _ = sb.affine_norm_pair(f, 2.0, 0.0, sv)
        assert lhs / sb.sobolev_norm_step(f, sv) == pytest.approx(2.0 ** (sv - 0.5), rel=1e-12)

    @given(f=step_functions(), sv=orders, a=st.floats(0.1, 8.0), b=st.floats(-4, 4), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_scaling_law(self, f, sv, a, b, sign):
        lhs, rhs = sb.affine_norm_pair(f, sign * a, b, sv)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_zero_scale(self):
        with pytest.raises(ValueError):
            sb.affine_norm_pair(StepFunction.indicator(0.0, 1.0), 0.0, 0.0, 0.2)


class TestRestriction:
    def test_full_window_is_identity(self):
        rng = np.random.default_rng(14)
        f = random_step(rng)
        lo, hi = f.support
        assert sb.restricted_norm(f, lo - 1.0, hi + 1.0, 0.25) == pytest.approx(
            sb.sobolev_norm_step(f, 0.25), rel=1e-12
        )

    @pytest.mark.parametrize("sv", [-0.4, 0.0, 0.4])
    def test_shrinking_interval(self, sv):
        rng = np.random.default_rng(8)
        f = random_step(rng)
        vals = [sb.restricted_norm(f, 0.1, 0.1 + 2.0**-m, sv) for m in range(1, 11)]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
        assert vals[-1] < 0.6 * vals[0]
        if sv <= 0:
            assert vals[-1] < 5e-2

    def test_empirical_sup_bounded(self):
        rng = np.random.default_rng(77)
        for sv in (-0.4, -0.1, 0.1, 0.4):
            for _ in range(100):
                f = random_step(rng)
                lo, hi = np.sort(rng.uniform(-2.2, 2.2, size=2))
                assert sb.restricted_norm(f, lo, hi, sv) <= 1.5 * sb.sobolev_norm_step(f, sv)


class TestEmbeddingSanity:
    @pytest.mark.parametrize("sv", [0.1, 0.25, 0.4])
    def test_lp_controls_negative_order(self, sv):
        # negative-order Sobolev norm bounded by the matching Lebesgue norm
        rng = np.random.default_rng(31)
        for _ in range(30):
            f = random_step(rng)
            lhs = sb.sobolev_norm_step(f, -sv)
            q = 2.0 / (1.0 + 2.0 * sv)
            rhs = np.sum(np.abs(f.values) ** q * np.diff(f.breakpoints)) ** (1.0 / q)
            assert lhs <= 2.0 * rhs
