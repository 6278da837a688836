"""Fractional Sobolev norms and the integrand norm for fractional processes.

The central object is the norm on admissible integrands for Wiener
integration against a unit-scale H-fractional process (E B_t^2 = t^2H);
a driver sigma B has sigma times the integral and sigma times every
norm.  It is computed from a weighted tail transform of the integrand
(identity at H = 1/2, a fractional integral for H > 1/2, a regularized
fractional derivative for H < 1/2) whose L2 norm reproduces the process
covariance on indicators.  The same norm is, up to an explicit constant,
the homogeneous Sobolev norm of order 1/2 - H, and this module carries
several independent routes to these quantities:

* ``integrand_norm``: L2 norm of the tail transform of the unit-span copy
  of the integrand, times ``span^H``; its edge sum is regrouped about the
  next edge and integrated piece by piece, in the distance to that edge,
  on the dyadic shells of ``_shell_integral``,
* ``integrand_inner``: exact bilinear form in the process increment
  covariance (no quadrature at all); it is the route for arbitrary step
  functions, used by ``LpKernelField.kernel_norms`` and as the tests'
  oracle (the K-doubling detector's graded mode kernels take
  ``spde._graded_norms`` instead),
* ``dh_norm_exponential``: the spde mode norms' exponential kernel as one
  shell integral (Euler's integral), with ``dh_norm_smooth`` as its oracle,
* ``sobolev_norm_step``: exact jump-pair closed form for step functions,
* ``sobolev_norm_fourier``: FFT of sampled data with an analytic
  high-frequency tail correction,
* ``sobolev_norm_gagliardo``: exact cell-pair double integral for
  piecewise-constant data, 0 < s < 1/2.

Cross-agreement of these routes is what the test suite leans on.
"""
from __future__ import annotations

import math

import numpy as np

from .grids import GridFunction, StepFunction
from .processes import _increment_covariance

__all__ = [
    "cosine_tail_constant",
    "transform_constant",
    "norm_equivalence_constant",
    "integrand_norm",
    "integrand_inner",
    "singular_inner_product",
    "sobolev_norm_step",
    "sobolev_norm_fourier",
    "sobolev_norm_gagliardo",
    "dh_norm_exponential",
    "dh_norm_smooth",
    "mesh_average_step",
    "affine_norm_pair",
    "restricted_norm",
]

# the dyadic shells of _shell_integral and the Gauss rule on each
_SHELLS = 90
_SHELL_RULE = np.polynomial.legendre.leggauss(16)


def _dyadic_shell(top: float, j, x: np.ndarray, w: np.ndarray):
    """Gauss rule ``(x, w)`` on [-1, 1] moved to the shells [top 2^-j-1, top 2^-j], j int or array."""
    b = top * 2.0 ** (-j)
    a = 0.5 * b
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


def _shell_integral(fn, top: float, ratio: float) -> float:
    """``int_0^top fn(u) du`` for an integrand with a power law at ``u = 0``.

    All ``_SHELLS`` dyadic shells toward 0 are evaluated as one array of
    nodes (``fn`` takes arrays), and the shells past the last one are
    added as the geometric series of ``ratio``, the ratio of consecutive
    shell contributions that the integrand's leading power at 0 gives.
    Past 2^-90 of ``top`` the lower-order powers no longer matter.
    """
    x, w = _dyadic_shell(top, np.arange(_SHELLS)[:, None], *_SHELL_RULE)
    shells = np.sum(w * fn(x), axis=1)
    return float(np.sum(shells) + shells[-1] * ratio / (1.0 - ratio))


def _check_hurst(hurst: float) -> float:
    h = float(hurst)
    if not 0.0 < h < 1.0:
        raise ValueError(f"hurst index must lie in (0, 1), got {hurst}")
    return h


def _order(s) -> float:
    """Smoothness order for the homogeneous scale on the line, |s| < 1/2."""
    val = float(s)
    if not abs(val) < 0.5:
        raise ValueError(f"order must satisfy |s| < 1/2, got {val}")
    return val


def cosine_tail_constant(a: float) -> float:
    r"""The integral :math:`\int_0^\infty (1 - \cos u)\, u^{-1-a}\, du` for 0 < a < 2.

    Evaluated in the cancellation-free form
    ``gamma(2 - a) * sin(pi (1-a) / 2) / (a (1-a))`` which is regular
    across a = 1 (value pi/2 there).
    """
    a = float(a)
    if not 0.0 < a < 2.0:
        raise ValueError("argument must lie in (0, 2)")
    eps = 1.0 - a
    # sin(pi eps / 2) / eps written through sinc to stay finite at eps = 0
    return float(math.gamma(2.0 - a) * (np.pi / 2.0) * np.sinc(eps / 2.0) / a)


def transform_constant(hurst: float) -> float:
    r"""Normalizing constant of the weighted tail transform.

    Square equals ``\int_0^\infty ((1+u)^{H-1/2} - u^{H-1/2})^2 du + 1/(2H)``,
    which is the Mandelbrot--Van Ness closed form
    ``gamma(H + 1/2)^2 / (gamma(2H + 1) sin(pi H))``; the value is exactly
    1 at H = 1/2.
    """
    h = _check_hurst(hurst)
    return math.gamma(h + 0.5) / math.sqrt(math.gamma(2.0 * h + 1.0) * math.sin(math.pi * h))


def norm_equivalence_constant(hurst: float) -> float:
    r"""Ratio between the integrand norm and the order-(1/2 - H) Sobolev norm.

    Equals ``gamma(H + 1/2) / transform_constant(H)``, that is
    ``sqrt(gamma(2H + 1) sin(pi H))``.  This is the constant for the
    covariance-normalized tail transform used throughout this module (the
    one under which indicators have norm ``t^H``).  At H = 1/2 the
    constant is exactly 1, and the map H -> constant is smooth there.
    """
    h = _check_hurst(hurst)
    return float(math.sqrt(math.gamma(2.0 * h + 1.0) * math.sin(math.pi * h)))


# ---------------------------------------------------------------------------
# weighted tail transform of step functions


def _transform_sq(f: StepFunction, hurst: float):
    """The squared weighted tail transform of ``f``, anchored at its edges.

    The transform of a step function collapses to a single sum over edges,

        (Kf)(r) = (1/c_H) * sum_i d_i (tau_i - r)_+^(H-1/2),

    with ``d_i`` the drop of f across edge ``tau_i`` (left minus right
    limit) and ``c_H`` the transform constant; at H = 1/2 it is f itself.
    Equivalently this is ``(H-1/2)/c_H`` times the tail integral of f
    against the kernel ``(u-r)^(H-3/2)`` (regularized by subtracting f(r)
    when H < 1/2); the prefactor is fixed so that the transform of an
    indicator is exactly the moving-average kernel of the matching
    fractional Brownian motion, which is what makes the L2 norm of the
    transform reproduce the driver covariance.

    Returns ``(taus, sq_at)``: the edges, and ``sq_at(k, u)``, the square
    at ``r = tau_k - u`` for ``0 < u <= tau_k - tau_{k-1}`` (any ``u > 0``
    for k = 0), elementwise over an array ``u``.  The sum is regrouped
    about its first edge: with ``f_k`` the value of f left of ``tau_k``
    and ``g = H - 1/2``,

        sum_{i>=k} d_i (tau_i - r)^g
            = u^g (f_k + sum_{i>k} d_i expm1(g log1p((tau_i - tau_k) / u))),

    which keeps its digits in the left tail, where ``f_0 = 0`` and the
    plain sum cancels (the drops sum to zero), and which puts the
    blow-up of the H < 1/2 value on the left of each edge at ``u = 0``,
    where floats are dense.
    """
    edges, rise = f.jumps()
    g = hurst - 0.5
    kappa = 1.0 / transform_constant(hurst)
    taus = [float(e) for e in edges]
    lefts = [0.0, *(float(v) for v in f.values)]
    # for anchor k: the offsets and drops of the edges right of tau_k
    tails = [
        [(taus[i] - taus[k], -float(rise[i])) for i in range(k + 1, len(taus))]
        for k in range(len(taus))
    ]

    def sq_at(k, u):
        acc = lefts[k]
        for delta, d in tails[k]:
            acc += d * np.expm1(g * np.log1p(delta / u))
        return (kappa * u**g * acc) ** 2

    return taus, sq_at


def _transform_l2_sq(f: StepFunction, hurst: float) -> float:
    """Squared L2(R) norm of the tail transform, piecewise on dyadic shells.

    Each piece is integrated in the distance ``u`` to its right edge, on
    shells toward ``u = 0``.  There the square goes like ``u^(2H-1)``
    beside a constant and ``u^(H-1/2)`` cross terms, so consecutive shells
    shrink by ``2^-min(2H, 1)``.  The left tail is split at the support
    length ``span``; past it, ``s = span / u`` maps it onto (0, 1], where
    the square decays like ``u^(2H-3)`` and the shells shrink by
    ``2^(2H-2)``.
    """
    taus, sq_at = _transform_sq(f, hurst)
    near = 2.0 ** -min(2.0 * hurst, 1.0)
    span = taus[-1] - taus[0]
    total = _shell_integral(lambda u: sq_at(0, u), span, near)
    total += _shell_integral(lambda s: sq_at(0, span / s) * span / s**2, 1.0, 2.0 ** (2.0 * hurst - 2.0))
    for k in range(1, len(taus)):
        total += _shell_integral(lambda u, k=k: sq_at(k, u), taus[k] - taus[k - 1], near)
    return total


def integrand_norm(f: StepFunction, hurst: float) -> float:
    """Norm of a step integrand for integration against an H-fractional driver.

    The L2 norm of the tail transform (the defining route), taken on the
    copy of ``f`` moved and stretched onto [0, 1] and multiplied by
    ``span^H``: the norm is shift-invariant and self-similar, so no time
    scale biases it and no power of a huge time overflows.
    ``integrand_inner`` is the independent cross-check.
    """
    h = _check_hurst(hurst)
    if f.n_pieces == 0:
        return 0.0
    lo, hi = f.support
    unit_sq = _transform_l2_sq(f.precompose_affine(hi - lo, lo), h)
    return float((hi - lo) ** h * math.sqrt(unit_sq))


def integrand_inner(f: StepFunction, g: StepFunction, hurst: float) -> float:
    """Exact inner product of step integrands via the increment covariance.

    Uses that the inner product of two indicators equals the covariance of
    the corresponding driver increments; no quadrature is involved.
    """
    h = _check_hurst(hurst)
    if f.n_pieces == 0 or g.n_pieces == 0:
        return 0.0
    # increment covariances of all piece pairs
    m = _increment_covariance(f.breakpoints, g.breakpoints, h)
    return float(f.values @ m @ g.values)


def singular_inner_product(f: StepFunction, g: StepFunction, hurst: float) -> float:
    r"""For H > 1/2: ``H(2H-1) \iint f(u) g(v) |u-v|^{2H-2} du dv``.

    The weight is integrated in closed form over each piece pair through
    the second antiderivative ``-|w|^{2H} / (2H(2H-1))``, so the only
    error is floating point rounding.  The prefactor ``H(2H-1)`` is the
    one that makes this agree with the squared integrand norm; that
    agreement is asserted by tests rather than assumed here.
    """
    h = _check_hurst(hurst)
    if not h > 0.5:
        raise ValueError("singular inner product requires hurst > 1/2")
    if f.n_pieces == 0 or g.n_pieces == 0:
        return 0.0
    tw = 2.0 * h

    def anti(w):
        # mixed second difference of this function over a piece pair gives
        # minus 2H(2H-1) times the double integral of |u-v|^{2H-2}
        return np.abs(w) ** tw

    fa, fb = f.breakpoints[:-1], f.breakpoints[1:]
    ga, gb = g.breakpoints[:-1], g.breakpoints[1:]
    mixed = (
        anti(fb[:, None] - gb[None, :])
        - anti(fb[:, None] - ga[None, :])
        - anti(fa[:, None] - gb[None, :])
        + anti(fa[:, None] - ga[None, :])
    )
    rect = -mixed / (tw * (tw - 1.0))
    return float(h * (tw - 1.0) * (f.values @ rect @ g.values))


# ---------------------------------------------------------------------------
# homogeneous Sobolev norms


def sobolev_norm_step(f: StepFunction, s) -> float:
    """Exact homogeneous Sobolev norm of a step function on the line.

    Writing the transform through the jumps of f gives

        norm^2 = -(2/pi) * C(1-2s) * sum_{i<j} d_i d_j |tau_i - tau_j|^{1-2s}

    with C the cosine tail constant; at s = 0 this is the classical
    identity for the L2 norm of a step function.
    """
    sv = _order(s)
    edges, rise = f.jumps()
    if edges.size < 2:
        return 0.0
    a = 1.0 - 2.0 * sv
    diff = np.abs(edges[:, None] - edges[None, :]) ** a
    quad_form = rise @ diff @ rise  # = 2 sum_{i<j} d_i d_j |...|^a since diag is 0
    val = -(1.0 / np.pi) * cosine_tail_constant(a) * quad_form
    return float(np.sqrt(max(val, 0.0)))


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


# Resolution of sobolev_norm_fourier: zero-padding factor of the FFT and the
# number of aliasing bands integrated before the analytic tail
_FOURIER_PAD = 32
_FOURIER_BANDS = 16


def sobolev_norm_fourier(f: GridFunction, s) -> float:
    """Homogeneous Sobolev norm of sampled data via the FFT.

    The samples are read as a piecewise-constant function on the grid
    cells, whose Fourier transform is available in closed form at the
    padded FFT frequencies.  The frequency integral is taken by Simpson's
    rule over ``2 * _FOURIER_BANDS`` aliasing bands of the FFT (reusing the
    periodic spectrum), the first cell around zero frequency is handled
    with an exact power-weighted rule, and the remaining high-frequency
    tail is added analytically from the jump content of the data.  For
    grid-aligned step data the only error left is the frequency-rule
    resolution, controlled by ``_FOURIER_PAD``.  A sum that is not finite,
    as when a huge grid step overflows the frequency powers, raises a
    ``ValueError`` that names the grid step.
    """
    sv = _order(s)
    h = f.grid.dt
    v = np.asarray(f.samples)
    n = v.size
    if not np.any(v != 0):
        return 0.0
    n_pad = _FOURIER_PAD * _next_pow2(n + 1)
    spec = np.fft.fft(v, n_pad)
    half = n_pad // 2
    p_plus = np.abs(spec[: half + 1]) ** 2

    dx = 2.0 * np.pi / (n_pad * h)
    lam = np.pi / h
    x = dx * np.arange(half + 1)
    osc = 2.0 - 2.0 * np.cos(x * h)  # |1 - e^{-i x h}|^2, envelope numerator

    jumps = np.diff(np.concatenate(([0.0], v, [0.0])))

    def band_integral(p_arr: np.ndarray) -> float:
        # sum over aliasing bands [2m lam, (2m+1) lam] and the mirrored halves
        total = 0.0
        for m in range(_FOURIER_BANDS):
            for forward in (True, False):
                if forward:
                    xs = 2.0 * m * lam + x
                    ps = p_arr
                    os_ = osc
                else:
                    xs = 2.0 * (m + 1) * lam - x[::-1]
                    ps = p_arr[::-1]
                    os_ = osc[::-1]
                g = np.where(xs > 0, np.abs(xs) ** (2.0 * sv - 2.0), 0.0) * os_ * ps
                if m == 0 and forward:
                    # exact power-weighted rule on [0, 2 dx] with a quadratic
                    # interpolant of the smooth factor phi = osc * p / x^2 -> h^2 p
                    phi0 = h * h * ps[0]
                    phi1 = os_[1] * ps[1] / x[1] ** 2
                    phi2 = os_[2] * ps[2] / x[2] ** 2
                    total += _first_cells_power(sv, dx, phi0, phi1, phi2)
                    total += _simpson(g[2:], dx)
                else:
                    total += _simpson(g, dx)
        return total / (2.0 * np.pi)

    # x^{2s-2} is infinite at x = 0 (masked out) and overflows for a huge
    # grid step; the sum is checked once below instead of warning per step,
    # and x_max is a numpy float so that its powers cannot raise OverflowError
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # real data: the negative frequencies mirror the positive ones
        total = 2.0 * band_integral(p_plus)

        # analytic tail beyond the last band; self term plus first-order
        # oscillatory correction from the jump pairs
        x_max = np.float64(2.0 * _FOURIER_BANDS * lam)
        sum_sq = float(np.sum(jumps**2))
        tail = sum_sq * x_max ** (2.0 * sv - 1.0) / (np.pi * (1.0 - 2.0 * sv))
        nz = np.flatnonzero(jumps)
        if 0 < nz.size <= 512:
            tau = f.grid.nodes[nz]
            d = jumps[nz]
            delta = tau[:, None] - tau[None, :]
            iu = np.triu_indices(nz.size, k=1)
            dd = (d[:, None] * d[None, :])[iu]
            dl = np.abs(delta[iu])
            tail += (2.0 / np.pi) * np.sum(dd * (-(x_max ** (2.0 * sv - 2.0)) * np.sin(x_max * dl) / dl))
        value = total + tail
    if not np.isfinite(value):
        raise ValueError(
            f"the Fourier Sobolev norm is not finite at grid step {h:g}: its "
            "frequency integral overflows the floating-point range; use a "
            "time window of moderate length"
        )
    return float(np.sqrt(max(value, 0.0)))


def _simpson(y: np.ndarray, dx: float) -> float:
    n = y.size - 1
    if n % 2 == 1:
        # composite Simpson on the even part, trapezoid on the last interval
        return _simpson(y[:-1], dx) + 0.5 * dx * (y[-2] + y[-1])
    return float(dx / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])))


def _first_cells_power(s: float, dx: float, phi0: float, phi1: float, phi2: float) -> float:
    """Exact ``int_0^{2 dx} x^{2s} phi(x) dx`` for the quadratic through phi0..phi2."""
    b = 2.0 * dx
    # phi(x) = c0 + c1 x + c2 x^2 through (0, dx, 2 dx)
    c0 = phi0
    c2 = (phi2 - 2.0 * phi1 + phi0) / (2.0 * dx * dx)
    c1 = (phi1 - phi0) / dx - c2 * dx
    m0 = b ** (2.0 * s + 1.0) / (2.0 * s + 1.0)
    m1 = b ** (2.0 * s + 2.0) / (2.0 * s + 2.0)
    m2 = b ** (2.0 * s + 3.0) / (2.0 * s + 3.0)
    return c0 * m0 + c1 * m1 + c2 * m2


def sobolev_norm_gagliardo(f: GridFunction, s, domain: str = "window") -> float:
    """Difference-quotient Sobolev norm of sampled data for 0 < s < 1/2.

    The double integral of ``|f(x) - f(y)|^2 |x - y|^{-1-2s}`` is taken
    exactly over every cell pair (the weight has an elementary second
    antiderivative and the data is piecewise constant), summed by lag.
    ``domain="window"`` restricts both variables to the grid window and
    adds the L2 term; ``domain="line"`` extends by zero to the whole line
    and adds the exact interaction with the two exterior half-lines.
    """
    sv = _order(s)
    if not 0.0 < sv < 0.5:
        raise ValueError("difference-quotient norm needs 0 < s < 1/2")
    h = f.grid.dt
    v = np.asarray(f.samples)
    n = v.size
    a = 1.0 - 2.0 * sv
    denom = 2.0 * sv * (1.0 - 2.0 * sv)

    def phi(w):
        return np.maximum(w, 0.0) ** a

    total = 0.0
    lags = np.arange(1, n)
    if lags.size:
        g = lags * h
        w_lag = (2.0 * phi(g) - phi(g - h) - phi(g + h)) / denom
        diff_sq = np.array([np.sum((v[:-k] - v[k:]) ** 2) for k in lags])
        total += 2.0 * float(w_lag @ diff_sq)

    if domain == "window":
        total += h * float(np.sum(v**2))
    elif domain == "line":
        cells_a = f.grid.nodes[:-1]
        cells_b = f.grid.nodes[1:]
        right_edge = f.grid.t_end
        left_edge = f.grid.t0
        e_right = (phi(right_edge - cells_a) - phi(right_edge - cells_b)) / denom
        e_left = (phi(cells_b - left_edge) - phi(cells_a - left_edge)) / denom
        total += 2.0 * float(np.sum(v**2 * (e_right + e_left)))
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# integrand norms of smooth convolution kernels


def dh_norm_exponential(lam: float, t: float, hurst: float) -> float:
    r"""Integrand norm of ``u -> exp(-lam (t - u))`` on (0, t), as one shell integral.

    With ``x = lam t`` and ``a = 2H + 1``, ``int_0^t e^{-lam (t-s)} dB_s =
    B_t - lam int_0^t e^{-lam (t-s)} B_s ds`` and the covariance give
    ``||.||^2 = t^{2H} [e^{-x} (1 - x/(2a) 1F1(1; a+1; -x)) +
    x^{-2H} gamma(a, x) / 2]``.  Euler's integral ``1F1(1; a+1; -x) = a
    int_0^1 (1-r)^{2H} e^{-x r} dr`` (DLMF 13.4.1) and ``x^{-2H} gamma(a, x)
    = x int_0^1 r^{2H} e^{-x r} dr`` fold the bracket into ``e^{-x} + x/2
    int_0^1 -r^{2H} e^{-x r} expm1(2x (r - 1)) dr``, whose integrand is
    nonnegative with the power ``2H`` at 0, so ``_shell_integral`` takes
    it; ``x = 0`` gives ``t^H``.  From ``x = 1`` on, ``t^H`` is taken as
    ``lam^{-H} x^H``, finite where ``t`` is huge.  Past ``x = 1e3`` both
    exponentials are below the double range: ``x`` is capped there,
    overflowing ``lam t`` included, and the square is the stationary fOU
    variance ``H Gamma(2H) lam^{-2H}``.
    """
    h = _check_hurst(hurst)
    lam = float(lam)
    t = float(t)
    if lam < 0:
        raise ValueError("decay rate must be nonnegative")
    if t <= 0:
        return 0.0
    x = min(lam * t, 1e3)

    def integrand(r):
        return -(r ** (2.0 * h)) * np.exp(-x * r) * np.expm1(2.0 * x * (r - 1.0))

    tail = x * _shell_integral(integrand, 1.0, 2.0 ** -(2.0 * h + 1.0))
    scale = t**h if x < 1.0 else lam**-h * x**h
    return float(scale * math.sqrt(math.exp(-x) + 0.5 * tail))


def dh_norm_smooth(fn, t: float, hurst: float) -> float:
    r"""Integrand norm of a smooth kernel on (0, t) for H >= 1/2.

    For H > 1/2 evaluates ``H(2H-1) * 2 \int_0^t w^{2H-2}
    \int_w^t fn(v) fn(v-w) dv dw`` with a Gauss rule on the inner
    correlation integral (256 nodes) and ``_shell_integral`` across the
    singular lag weight, whose shells shrink by ``2^(1-2H)``; at H = 1/2
    it is the L2 norm, on shells that halve.  ``fn`` must accept numpy
    arrays.
    """
    h = _check_hurst(hurst)
    if h < 0.5:
        raise ValueError("smooth-kernel norm implemented for hurst >= 1/2 only")
    t = float(t)
    if t <= 0:
        return 0.0
    if h == 0.5:
        val = _shell_integral(lambda u: np.asarray(fn(u)) ** 2, t, 0.5)
        return float(np.sqrt(max(val, 0.0)))

    nodes, weights = np.polynomial.legendre.leggauss(256)

    def weighted_corr(w):
        # the lag weight times the correlation integral, over the 256 nodes of [w, t]
        rad = 0.5 * (t - w)[..., None]
        v = 0.5 * (t + w)[..., None] + rad * nodes
        corr = np.sum(rad * weights * fn(v) * fn(v - w[..., None]), axis=-1)
        return w ** (2.0 * h - 2.0) * corr

    outer = _shell_integral(weighted_corr, t, 2.0 ** (1.0 - 2.0 * h))
    val = h * (2.0 * h - 1.0) * 2.0 * outer
    return float(np.sqrt(max(val, 0.0)))


# ---------------------------------------------------------------------------
# averaging, affine rescaling, restriction


def _cumulative_at(f_step: StepFunction, x: np.ndarray) -> np.ndarray:
    """Antiderivative of a step function at arbitrary points."""
    if f_step.n_pieces == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    bp, vals = f_step.breakpoints, f_step.values
    widths = np.diff(bp)
    cum = np.concatenate(([0.0], np.cumsum(vals * widths)))
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, vals.size - 1)
    inside = (x >= bp[0]) & (x <= bp[-1])
    out = np.where(x <= bp[0], 0.0, cum[-1])
    out = np.where(inside, cum[idx] + vals[idx] * (x - bp[idx]), out)
    return out


def mesh_average_step(f: StepFunction, offset: float, width: float) -> StepFunction:
    """Replace ``f`` by its average over each mesh interval, exactly.

    Mesh intervals are ``offset + width * [k, k+1)``; the result is the
    step function taking on each such interval the mean of ``f`` over it.
    Valid for arbitrary offset and width, no grid alignment needed.
    """
    if width <= 0:
        raise ValueError("mesh width must be positive")
    if f.n_pieces == 0:
        return StepFunction.empty()
    lo, hi = f.support
    k0 = int(np.floor((lo - offset) / width))
    k1 = int(np.ceil((hi - offset) / width))
    edges = offset + width * np.arange(k0, k1 + 1)
    means = np.diff(_cumulative_at(f, edges)) / width
    return StepFunction(edges, means).dropped_zero_tails()


def affine_norm_pair(f: StepFunction, a: float, b: float, s) -> tuple[float, float]:
    """Sobolev norm of ``x -> f(a x + b)`` and its predicted rescaling.

    Returns ``(norm of the precomposed function, |a|^(s - 1/2) * norm of f)``;
    the two agree identically in exact arithmetic.
    """
    sv = _order(s)
    if a == 0:
        raise ValueError("affine scale must be nonzero")
    lhs = sobolev_norm_step(f.precompose_affine(a, b), sv)
    rhs = abs(a) ** (sv - 0.5) * sobolev_norm_step(f, sv)
    return lhs, rhs


def restricted_norm(f: StepFunction, lo: float, hi: float, s) -> float:
    """Sobolev norm of ``f`` multiplied by the indicator of ``[lo, hi)``."""
    return sobolev_norm_step(f.restricted(lo, hi), _order(s))
