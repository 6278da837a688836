"""Spectral solver for parabolic equations driven by fractional noise.

The spatial operator is realized as the constant-coefficient spectral
power of the Dirichlet Laplacian on an interval: eigenvalues
``(k pi / L)^{2m}`` with sine eigenfunctions.  This keeps every exponent
and threshold of the continuous problem while avoiding a general
elliptic eigensolver; all smoothing and existence statements tested
against this realization carry the same ``d/4m`` bookkeeping.

Two problem families live here: distributed noise expanded in the
eigenbasis (mild solutions mode by mode), and boundary noise on the two
endpoints driven through the Neumann heat kernel built by the method of
images.
"""
from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .grids import StepFunction, TimeGrid
from .integrals import LpKernelField, _dyadic_sum, _second_moment_z, _stops_decaying
from .processes import FracParams, simulate_cylindrical, simulate_driver
from .rng import map_ordered
from .sobolev import _check_hurst, _dyadic_shell, dh_norm_exponential

__all__ = [
    "SpectralModel",
    "NeumannKernelConfig",
    "ExistenceReport",
    "NeumannIntegralRecord",
    "BoundaryCheckRecord",
    "mode_norm",
    "existence_report",
    "assemble_kernel_field",
    "semigroup_smoothing_exponent",
    "mild_summary",
    "neumann_heat_kernel",
    "neumann_boundary_integral",
    "boundary_solution_check",
]

@dataclass(frozen=True)
class SpectralModel:
    """Truncated spectral realization of an order-2m operator on (0, L).

    Eigenvalues ``(k pi / L)^(2m)``, sine modes, weights ``eigenvalues^alpha``.
    """

    length: float
    m: int
    truncation: int
    p: float = 2.0

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("domain length must be positive")
        if self.m < 1 or self.m % 1 != 0:
            raise ValueError("operator half-order m must be an integer >= 1")
        if self.truncation < 1 or self.truncation % 1 != 0:
            raise ValueError("truncation must be an integer number of modes >= 1")
        if self.p < 1:
            raise ValueError("integrability exponent p must be >= 1")
        with np.errstate(over="ignore", under="ignore"):
            bottom, top = (np.array([1.0, self.truncation]) * math.pi / self.length) ** self.order
            if not (bottom > 0 and np.isfinite(top)):
                raise ValueError(
                    f"the spectrum (k pi / L)^(2m) leaves the floating-point range at length "
                    f"{self.length:g}, m = {self.m} and truncation {self.truncation}: the "
                    "bottom eigenvalue must be positive and the top one finite"
                )

    @property
    def order(self) -> int:
        return 2 * self.m

    @property
    def eigenvalues(self) -> np.ndarray:
        k = np.arange(1, self.truncation + 1)
        return (k * math.pi / self.length) ** self.order

    def eigenfunctions(self, x) -> np.ndarray:
        """Orthonormal sine modes, shape (len(x), K)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = np.arange(1, self.truncation + 1)
        return np.sqrt(2.0 / self.length) * np.sin(
            np.outer(x, k) * math.pi / self.length
        )

    def spatial_quadrature(self, n_cells: int):
        """Midpoint rule on the interval; exact enough for smooth modes."""
        dx = self.length / n_cells
        return dx * (np.arange(n_cells) + 0.5), np.full(n_cells, dx)

    def existence_threshold(self, hurst: float) -> float:
        """``H - 1/(4m)``: the mode series of the mild convolution converges iff alpha is below it."""
        return hurst - 1.0 / (4.0 * self.m)

    def fractional_weights(self, alpha: float) -> np.ndarray:
        return self.eigenvalues**alpha

    def truncated(self, truncation: int) -> "SpectralModel":
        return SpectralModel(self.length, self.m, truncation, self.p)


def mode_norm(
    model: SpectralModel,
    k: int,
    t: float,
    hurst: float,
    alpha: float = 0.0,
) -> float:
    """Integrand norm of the k-th mode kernel ``s -> e^{-lam_k (t-s)}``, weighted.

    This is ``dh_norm_exponential`` at ``lam_k``, times the fractional-power
    weight ``lam_k^alpha``; its square is the mode's second moment in the
    mild solution.
    """
    if not 1 <= k <= model.truncation:
        raise ValueError("mode index out of range")
    if not t > 0:
        raise ValueError("time must be positive")
    weight = float(model.fractional_weights(alpha)[k - 1])
    return weight * dh_norm_exponential(float(model.eigenvalues[k - 1]), t, hurst)


# pieces of every graded step kernel: the mode kernels and the Neumann boundary kernels
_KERNEL_PIECES = 96
# mode kernels per _graded_norms call in _mode_step_norms: its (chunk, 96)
# temporaries stay small heap blocks, whatever the truncation
_NORM_CHUNK = 64


def _graded_edges(floor, t: float) -> np.ndarray:
    """Edges ``{0} U geomspace(floor, t, _KERNEL_PIECES)`` of a graded step kernel on (0, t].

    Every graded kernel lives on this partition, and ``_graded_norms`` relies
    on its geometric spacing.  An array of floors gives one row of edges each.
    """
    floor = np.asarray(floor, dtype=float)
    rest = np.geomspace(floor, t, _KERNEL_PIECES, axis=-1)
    return np.concatenate((np.zeros(floor.shape + (1,)), rest), axis=-1)


def _graded_norms(floors, t: float, values: np.ndarray, hurst: float) -> np.ndarray:
    """Unit-scale covariance-route norms of step kernels on ``_graded_edges(floors, t)``.

    ``values``, shape ``(n_kernels, _KERNEL_PIECES)``, holds the values
    ``v_0 .. v_{n-1}`` of each kernel.  With ``d_k = v_{k-1} - v_k`` the drop
    of the step at edge ``e_k > 0`` (``v_n = 0``), the squared norm is
    ``sum_{k,l} d_k d_l R_H(e_k, e_l)``.  On a geometric partition with ratio rho,
    ``|e_k - e_l|^{2H} = P_max(k,l) (1 - G_|k-l|)`` with ``P_k = e_k^{2H}``
    and ``G_j = 1 - (1 - rho^{-j})^{2H}``; since ``sum_{l<k} d_l = v_0 -
    v_{k-1}``, the square is

        ||s||^2 = sum_k d_k P_k (v_{k-1} + sum_{l<k} d_l G_{k-l}):

    2n powers and one length-n convolution per kernel, where the
    covariance route ``sobolev.integrand_inner`` takes (n + 1)^2 powers.
    The drops of far-apart edges enter through the telescoped ``v_{k-1}``,
    not through a sum that cancels, and ``G_j`` decays like ``2H rho^{-j}``.
    """
    h2 = 2.0 * _check_hurst(hurst)
    floors = np.asarray(floors, dtype=float)
    # pieces-major (n, kernels) layout: each lag of the convolution updates one contiguous block
    v = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    d = v - np.concatenate((v[1:], np.zeros((1, v.shape[1]))))
    log_ratio = (math.log(t) - np.log(floors)) / (_KERNEL_PIECES - 1)
    with np.errstate(under="ignore"):
        decay = np.exp(-np.arange(1, _KERNEL_PIECES)[:, None] * log_ratio)
        gap = -np.expm1(h2 * np.log1p(-decay))
    near = v.copy()
    for j in range(1, _KERNEL_PIECES):
        near[j:] += gap[j - 1] * d[:-j]
    p = _graded_edges(floors, t)[:, 1:].T ** h2
    return np.sqrt(np.maximum(np.sum(d * p * near, axis=0), 0.0))


def _exp_kernel_values(lams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Edges and cell averages of the graded steps of ``u -> e^{-lam u}`` on (0, t], per rate."""
    lams = np.asarray(lams, dtype=float)[..., None]
    floors = np.minimum(t * 1e-10, 1e-8 / np.maximum(lams, 1.0 / t))
    edges = _graded_edges(floors[..., 0], t)
    width = np.diff(edges, axis=-1)
    with np.errstate(under="ignore"):
        mass = np.exp(-lams * edges[..., :-1]) * -np.expm1(-lams * width) / lams
    return edges, mass / width


def _exp_kernel_step(lam: float, t: float) -> StepFunction:
    """Graded step discretization of ``u -> e^{-lam u}`` on (0, t], for ``lam > 0``.

    Geometric edges (``_graded_edges``, floor ``min(1e-10 t, 1e-8 / max(lam,
    1/t))``) resolve the boundary layer at 0 for stiff rates; each piece
    carries the exact cell average, so the step function is the L2
    projection of the kernel onto its own partition.  ``_mode_step_norms``
    takes the same cell averages for a block of rates at once.
    """
    return StepFunction(*_exp_kernel_values(lam, t))


@dataclass(frozen=True)
class ExistenceReport:
    """Verdict of the K-doubling detector on the distributed-noise mode series."""

    gamma_norm_lp_value: float
    per_mode_tail: tuple  # block-mass increments of the mode series
    finite: bool


def _midpoint_sq_sums(coef: np.ndarray, length: float, n_cells: int) -> np.ndarray:
    """``sum_k coef_k (2/L) sin^2(k pi x_i / L)`` at the ``n_cells`` midpoint nodes.

    With ``sin^2 = (1 - cos)/2`` the sum is ``(sum_k coef_k - C_i) / L`` with
    ``C_i = sum_k coef_k cos(2 k pi x_i / L)``.  At the midpoints
    ``x_i = (i + 1/2) L / n`` that cosine sum is ``Re(n ifft(c)_i)`` for the
    K + 1 phased coefficients ``c_k = coef_k e^{i pi k / n}`` (``c_0 = 0``),
    which ``np.fft.ifft`` pads to length n, so no (n, K) sine matrix is built;
    the index fits while K < n.  Leading axes of ``coef`` are batch axes.
    Rounding can leave a sum whose exact value is 0 slightly negative, so
    the result is clipped at 0.
    """
    coef = np.asarray(coef, dtype=float)
    n_modes = coef.shape[-1]
    if not n_modes < n_cells:
        raise ValueError("need more than K midpoint cells")
    phased = np.concatenate((np.zeros(coef.shape[:-1] + (1,)), coef), axis=-1)
    phased = phased * np.exp(1j * math.pi * np.arange(n_modes + 1) / n_cells)
    cos_sum = n_cells * np.fft.ifft(phased, n=n_cells, axis=-1).real
    return np.maximum(coef.sum(axis=-1, keepdims=True) - cos_sum, 0.0) / length


@lru_cache(maxsize=32)
def _mode_step_norms(length: float, m: int, hurst: float, t0: float, n_modes: int) -> np.ndarray:
    """Unit-scale norms of the first ``n_modes`` graded mode kernels, unweighted.

    Each is the covariance-route norm of ``_exp_kernel_step(lam_k, t0)``,
    taken by ``_graded_norms`` for ``_NORM_CHUNK`` modes at a time.  They
    depend only on the geometry, H and t0, so they are cached per H and
    shared by every alpha; the caller applies the fractional weights.  The
    array is read-only.
    """
    lams = SpectralModel(length, m, n_modes).eigenvalues
    out = np.empty(n_modes)
    for lo in range(0, n_modes, _NORM_CHUNK):
        edges, values = _exp_kernel_values(lams[lo : lo + _NORM_CHUNK], t0)
        out[lo : lo + _NORM_CHUNK] = _graded_norms(edges[:, 1], t0, values, hurst)
    out.setflags(write=False)
    return out


def existence_report(
    model: SpectralModel,
    hurst: float,
    alpha: float,
    t0: float,
    *,
    doublings: int = 3,
) -> ExistenceReport:
    """Evaluate the kernel-field gamma norm and probe it under K-doubling.

    The detector threshold-sweep tests against ``model.existence_threshold``
    (mild solves do not run it).  The per-node norm is an l2 combination over
    modes, so doubling the truncation adds a block of nonnegative mass to the
    p-th power of the norm; the verdict is divergence when those blocks stop decaying.

    The mode norms are the unit-scale graded-kernel norms of
    ``_mode_step_norms`` (2n powers and one convolution per mode, cached per
    H), times the fractional weights.  The squared node norms
    ``sum_k a_k (2/L) sin^2(k pi x_i / L)`` on the ``4 K 2^doublings``
    midpoint cells come from the identity ``sin^2 = (1 - cos)/2``:
    ``(sum_k a_k - sum_k a_k cos(2 k pi x_i / L)) / L``, whose cosine sum is
    one inverse FFT per doubling (``_midpoint_sq_sums``), O(n log n) in the n
    cells and without an (n, K) sine matrix.  A horizon the truncation
    cannot resolve (``lambda_K t0 < 1``) is refused: there the K-doubling
    blocks do not yet show the decay of the series, and the verdict is wrong.
    """
    if not model.eigenvalues[-1] * t0 >= 1.0:
        raise ValueError(
            f"horizon t0 = {t0:g} must be positive and resolved by the truncation "
            f"(lambda_K t0 >= 1); it is not at length {model.length:g}, m = {model.m} and "
            f"truncation {model.truncation}: raise t0 or the truncation, or shorten the domain"
        )
    k_max = model.truncation * 2**doublings
    base = _mode_step_norms(model.length, model.m, hurst, t0, k_max)
    n_cells = 4 * k_max
    _, ws = model.spatial_quadrature(n_cells)
    # row j: the squared norms of the first K 2^j modes, one inverse FFT per doubling
    sizes = model.truncation * 2 ** np.arange(doublings + 1)
    # a large alpha overflows the weights or their squares; the masses are
    # checked once below instead of warning per step
    with np.errstate(over="ignore", invalid="ignore"):
        norms = model.truncated(k_max).fractional_weights(alpha) * base
        coef = np.where(np.arange(k_max) < sizes[:, None], norms**2, 0.0)
        node_sq = _midpoint_sq_sums(coef, model.length, n_cells)
        mass = [float(np.sum(ws * row ** (model.p / 2.0))) for row in node_sq]
    if not np.all(np.isfinite(mass)):
        raise ValueError(
            f"the mode series at alpha={alpha:g}, H={hurst:g} and truncation {model.truncation} "
            f"x 2^{doublings} overflows: its block masses are not finite; lower alpha"
        )
    incs = np.diff(mass)
    return ExistenceReport(
        gamma_norm_lp_value=mass[0] ** (1.0 / model.p),
        per_mode_tail=tuple(float(d) for d in incs),
        finite=not _stops_decaying(incs),
    )


def assemble_kernel_field(
    model: SpectralModel,
    hurst: float,
    alpha: float,
    t0: float,
) -> LpKernelField:
    """The distributed-noise kernel as an explicit pointwise-kernel field.

    One step-function component per mode at each of the ``4 K`` midpoint
    nodes; this is the slow but fully composed route whose gamma norm must
    agree with the scaled-norm shortcut of ``existence_report`` at
    ``doublings = 0``, which integrates on the same cells.
    """
    lams = model.eigenvalues
    weights = model.fractional_weights(alpha)
    xs, ws = model.spatial_quadrature(4 * model.truncation)
    modes = model.eigenfunctions(xs)
    base = [_exp_kernel_step(lam, t0) for lam in lams]
    kernels = tuple(
        tuple(
            base[k].scaled(float(weights[k] * modes[i, k]))
            for k in range(model.truncation)
        )
        for i in range(xs.size)
    )
    params = FracParams.fbm(hurst)
    return LpKernelField(nodes=xs, weights=ws, kernels=kernels, p=model.p, params=params)


def semigroup_smoothing_exponent(model: SpectralModel, alpha: float) -> float:
    """Fitted decay rate of the gamma norm of the weighted semigroup.

    Log-log regression over two decades of ``u`` (17 points), anchored at
    ``2 / lam_K``, just above the truncation floor, so the spectral sum
    still behaves like its integral limit; the expected slope is
    ``-d/4m - alpha`` in this 1-D setup.  The spatial L^p norm takes the
    squared node values from the cosine sums of ``_midpoint_sq_sums`` on
    ``max(256, 4 K)`` cells, for every p.
    """
    if alpha < 0:
        raise ValueError("fractional order alpha must be nonnegative")
    lams = model.eigenvalues
    weights = model.fractional_weights(alpha)
    u0 = 2.0 / lams[-1]
    us = np.geomspace(u0, 100.0 * u0, 17)
    n_cells = max(256, 4 * model.truncation)
    _, ws = model.spatial_quadrature(n_cells)
    g_sq = (weights * np.exp(-np.outer(us, lams))) ** 2
    node_sq = _midpoint_sq_sums(g_sq, model.length, n_cells)
    vals = [float(np.sum(ws * row ** (model.p / 2.0))) ** (1.0 / model.p) for row in node_sq]
    slope = np.polyfit(np.log(us), np.log(vals), 1)[0]
    return float(slope)


def _mode_paths(model, params, grid, n_paths, alpha, seed, n_noise_cells):
    """Refuse an alpha not below ``model.existence_threshold``, then yield ``(k, steps)`` per mode.

    ``steps[i - 1]`` holds the weighted coefficients of mode k at node i
    >= 1 on all paths, shape ``(n_steps, n_paths)``: time-major, as the
    recursion runs (node 0 is the zero start).  Modes come in ascending
    order.  The check runs when this is called, the draws once the modes
    are consumed: one mode per task on the ``rng.worker_threads`` pool,
    through ``rng.map_ordered``.  Close the iterator when leaving it early,
    so that no mode is left running.
    """
    threshold = model.existence_threshold(params.h)
    if not alpha < threshold:
        raise ValueError(
            f"fractional order alpha={alpha:g} is not below the existence "
            f"threshold H - 1/(4m) = {threshold:g}: the mode series "
            "for the convolution diverges, so there is no mild solution "
            "to simulate. Lower alpha, raise H, or raise the operator order."
        )
    lams = model.eigenvalues
    weights = model.fractional_weights(alpha)

    def mode(k: int) -> tuple[int, np.ndarray]:
        # mode k is component k of simulate_cylindrical; its increments are
        # dropped once copied time-major
        y = np.ascontiguousarray(
            simulate_driver(params, grid, n_paths, seed, k, n_noise_cells).increments.T
        )
        # exact one-step form of the left-point convolution
        fade = math.exp(-lams[k] * grid.dt)
        y *= fade
        for i in range(1, y.shape[0]):
            y[i] += fade * y[i - 1]
        y *= weights[k]
        return k, y

    # each task draws its path blocks serially; at most one mode per worker
    # exists at a time, counting one the caller holds and drops before asking
    # for the next.  Tasks return k with the mode: numbering by enumerate
    # would keep the previous mode alive in its reused result tuple
    return map_ordered(mode, model.truncation)


def mild_summary(
    model: SpectralModel,
    params: FracParams,
    grid: TimeGrid,
    n_paths: int,
    alpha: float,
    *,
    seed: int,
    n_noise_cells: int,
    fit_holder: bool,
) -> tuple[np.ndarray, float | None]:
    """Mild solution by the left-point recursion, one independent driver per mode.

    The discrete convolution satisfies the exact per-step recursion
    ``y(t_{i+1}) = e^{-lam dt} (y(t_i) + dz_i)``; an ``alpha`` not below
    ``model.existence_threshold(H)`` is refused, since the mode series
    diverges.  Returns ``(terminal, slope)``: ``terminal[path, mode]`` is
    the weighted mode value at the last node and, when ``fit_holder``,
    ``slope`` is that of log E||Y_{t+h} - Y_t||_{L^p} against log h over
    the dyadic lags of ``_LagFold`` (else it is None).  Each mode's path
    is folded into the fit as it is drawn, so no ``(n_paths, K, n_nodes)``
    array is built: for p = 2 the fit keeps one ``(n_starts, n_paths)`` sum
    per lag, for p != 2 the second half of each mode's path.  Every
    argument is required.
    """
    modes = _mode_paths(model, params, grid, n_paths, alpha, seed, n_noise_cells)
    fold = _LagFold(model, grid, n_paths) if fit_holder else None
    terminal = np.zeros((n_paths, model.truncation))
    with closing(modes):
        for k, steps in modes:
            terminal[:, k] = steps[-1]
            if fold is not None:
                fold.add(k, steps)
            del steps  # dropped before the next mode is asked for, which may start one
    return terminal, None if fold is None else fold.slope()


class _LagFold:
    """Lag statistics of the Hölder fit, fed one mode path at a time.

    The lags are 1, 2, .., 32 steps, up to a quarter of the grid, and the
    starts are the nodes of the second half of the window, where the
    solution has forgotten its zero start.  For p = 2 each lag keeps the
    sum over modes of squared increments, added in ascending mode order;
    for p != 2 the window of every mode is kept and the spatial norm uses
    a midpoint rule of max(64, 4 K) cells for K modes, on which the sine
    modes stay orthonormal.
    """

    def __init__(self, model: SpectralModel, grid: TimeGrid, n_paths: int):
        n = grid.n_steps
        self.lags = [2**j for j in range(6) if 2**j <= n // 4]
        if len(self.lags) < 2:
            raise ValueError("grid too short for a lag regression")
        self.model, self.dt, self.i0 = model, grid.dt, n // 2
        width = n + 1 - self.i0
        if model.p == 2.0:
            self.sq = [np.zeros((width - lag, n_paths)) for lag in self.lags]
        else:
            self.window = np.zeros((n_paths, model.truncation, width))

    def add(self, k: int, steps: np.ndarray) -> None:
        """Fold in mode ``k``, nodes 1..n as ``(n_steps, n_paths)`` rows; modes ascend."""
        w = steps[self.i0 - 1:]
        if self.model.p != 2.0:
            self.window[:, k] = w.T
            return
        for lag, sq in zip(self.lags, self.sq):
            d = np.subtract(w[lag:], w[:w.shape[0] - lag])
            sq += np.square(d, out=d)

    def slope(self) -> float:
        p = self.model.p
        if p == 2.0:
            # the mean sums row-major (path, start) arrays, so its order is
            # fixed whatever the layout of the sums
            means = [float(np.mean(np.sqrt(np.ascontiguousarray(sq.T)))) for sq in self.sq]
        else:
            means = []
            c = self.window
            xq, wq = self.model.spatial_quadrature(max(64, 4 * c.shape[1]))
            ef = self.model.eigenfunctions(xq)
            # one start column at a time, through reused (n_paths, K) and (n_paths, n_x) buffers
            d = np.empty(c.shape[:2])
            fields = np.empty((c.shape[0], wq.size))
            for lag in self.lags:
                later, earlier = c[..., lag:], c[..., :c.shape[-1] - lag]
                norms = np.empty((c.shape[0], later.shape[-1]))
                for s in range(later.shape[-1]):
                    np.subtract(later[..., s], earlier[..., s], out=d)
                    np.abs(np.matmul(d, ef.T, out=fields), out=fields)
                    norms[:, s] = (np.power(fields, p, out=fields) @ wq) ** (1.0 / p)
                means.append(float(np.mean(norms)))
        slope = np.polyfit(np.log(np.array(self.lags) * self.dt), np.log(means), 1)[0]
        return float(slope)


# ---------------------------------------------------------------------------
# boundary noise through the Neumann heat kernel


# a heat kernel at time u carries a factor below e^{-400} farther than
# _KERNEL_REACH sqrt(u) from its centre: the image sum stops there.  The
# boundary Monte Carlo holds a (steps x nodes x 4N+2) array, so N stops at 200 images (u <= 100 L^2)
_KERNEL_REACH = 40.0
_MAX_IMAGES = 200


def _image_count(u: float, length: float, name: str = "time u") -> int:
    """Images per side within ``_KERNEL_REACH sqrt(u)`` of the domain (0, L)."""
    reach = 0.5 * _KERNEL_REACH * math.sqrt(u) / length
    if not reach <= _MAX_IMAGES:
        raise ValueError(
            f"{name} = {u:g} at length {length:g} needs more than {_MAX_IMAGES} Neumann "
            f"images; the image sum covers times up to 100 length^2 = {100.0 * length**2:g}"
        )
    return max(1, math.ceil(reach))


@dataclass(frozen=True)
class NeumannKernelConfig:
    """Setup for the boundary-noise problem on (0, L); t0 <= 100 L^2, the image sum's reach."""

    length: float
    t0: float
    hurst: float
    p: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("domain length must be positive")
        if not self.t0 > 0:
            raise ValueError("horizon must be positive")
        if not 0.5 <= self.hurst < 1.0:
            raise ValueError("boundary problem needs hurst in [1/2, 1)")
        if not 1.0 < self.p <= 2.0:
            raise ValueError("integrability exponent p must lie in (1, 2]")
        _image_count(self.t0, self.length, "horizon t0")


def neumann_heat_kernel(u, x, y: float, length: float) -> np.ndarray:
    """Heat kernel with reflecting endpoints, by the method of images.

    All images enter with positive sign, so the kernel is positive.  The
    sum takes every image within ``_KERNEL_REACH sqrt(max u)`` of the
    domain, ``ceil(20 sqrt(max u) / L)`` per side, so it is exact to
    rounding; a time beyond 100 L^2 (more than 200 images) is refused.
    ``u`` and ``x`` broadcast (say, a node column against a block of
    times); every value sums the images of the call's largest ``u``.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    n = _image_count(float(u.max(initial=0.0)), length)
    shifts = 2.0 * length * np.arange(-n, n + 1)
    centers = np.concatenate((shifts + y, shifts - y))
    d = x[..., None] - centers
    # a far image's d^2 / 4u may overflow to inf: exp(-inf) = 0 is its weight
    with np.errstate(under="ignore", over="ignore"):
        gauss = np.exp(-(d**2) / (4.0 * u[..., None]))
        out = gauss.sum(axis=-1) / np.sqrt(4.0 * math.pi * u)
    return out


def _boundary_kernel_sq(cfg: NeumannKernelConfig, s: np.ndarray, x) -> np.ndarray:
    g0 = neumann_heat_kernel(s, x, 0.0, cfg.length)
    gL = neumann_heat_kernel(s, x, cfg.length, cfg.length)
    return g0**2 + gL**2


def _surrogate_kernel_sq(cfg: NeumannKernelConfig, s: np.ndarray, x, d: int) -> np.ndarray:
    # Gaussian-bound model with formal dimension: (s^{-d/2} e^{-|x-y|^2/(4s)})^2
    with np.errstate(under="ignore"):
        return s ** (-float(d)) * (
            np.exp(-(x**2) / (2.0 * s)) + np.exp(-((cfg.length - x) ** 2) / (2.0 * s))
        )


@dataclass(frozen=True)
class NeumannIntegralRecord:
    value: float
    diverged: bool
    refinement_trace: tuple


# space shells start at c sqrt(t0), c = _SHELL_START: farther from both walls,
# q^{1/(2H)} carries e^{-x^2/(4Hs)} (s <= t0) and the inner integral's power pH
# carries e^{-c^2 p/4} < e^{-25}, far below the 1e-7 shell tolerance
_SHELL_START = 10.0
_TIME_CHUNK = 48  # time shells per kernel call in neumann_boundary_integral


def neumann_boundary_integral(
    cfg: NeumannKernelConfig, *, surrogate_d: int | None = None
) -> NeumannIntegralRecord:
    """Mixed boundary-kernel integral with graded meshes at both singular ends.

    The outer spatial integral runs over dyadic shells toward the
    boundary (both endpoints at once, using the x <-> L-x symmetry of the
    two-atom integrand; 8-point rule, at most 34 shells, relative shell
    tolerance 1e-7); the trace of partial sums doubles as the divergence
    detector.  The shells start at ``min(L/2, 10 sqrt(t0))``: farther
    from both walls the integrand carries a factor below ``e^{-25 p}``,
    and a short horizon would otherwise spend the shell budget where the
    integrand underflows.  ``surrogate_d`` switches the kernel to the
    Gaussian-bound power model with a formal dimension, which is the only
    way a 1-D setup can exhibit the supercritical regime.

    A space shell evaluates its nodes and a chunk of time shells as one
    kernel array when a node's stopping rule first asks for the chunk;
    value and trace are bit-identical to one node and shell at a time.
    """
    if surrogate_d is not None and surrogate_d < 1:
        raise ValueError("surrogate dimension must be a positive integer")
    expo = 1.0 / (2.0 * cfg.hurst)
    outer_pow = cfg.p * cfg.hurst

    if surrogate_d is None:
        def q(s, x):
            return _boundary_kernel_sq(cfg, s, x)
    else:
        def q(s, x):
            return _surrogate_kernel_sq(cfg, s, x, surrogate_d)

    xg, wg = np.polynomial.legendre.leggauss(8)
    sg, sw = np.polynomial.legendre.leggauss(12)
    max_time_shells = 120
    shells = [_dyadic_shell(cfg.t0, j, sg, sw) for j in range(max_time_shells)]
    sn, snw = map(np.array, zip(*shells))
    counts = [_image_count(float(u.max()), cfg.length) for u in sn]
    x_top = min(0.5 * cfg.length, _SHELL_START * math.sqrt(cfg.t0))

    def space_shell(j: int) -> float:
        xn, xw = _dyadic_shell(x_top, j, xg, wg)
        chunks = []  # q^expo as (nodes, shells, 12) arrays

        def time_shell(i: int, k: int) -> float:
            # the integrand decays exponentially once the shell falls
            # below the kernel scale
            c, r = divmod(k, _TIME_CHUNK)
            if c == len(chunks):
                lo = c * _TIME_CHUNK
                hi = min(lo + _TIME_CHUNK, max_time_shells)
                # a kernel call covers a run of time shells with one image count
                cuts = [lo, *(a for a in range(lo + 1, hi) if counts[a] != counts[a - 1]), hi]
                parts = [q(sn[a:b], xn[:, None, None]) for a, b in zip(cuts, cuts[1:])]
                chunks.append(np.concatenate(parts, axis=1) ** expo)
            return float(snw[k] @ chunks[c][i, r])

        inner = np.array(
            [_dyadic_sum(partial(time_shell, i), max_time_shells, 1e-12)[0] for i in range(xn.size)]
        )
        return 2.0 * float(xw @ inner**outer_pow)

    value, trace = _dyadic_sum(space_shell, 34, 1e-7)
    return NeumannIntegralRecord(
        value=value,
        diverged=math.isinf(value),
        refinement_trace=tuple(trace),
    )


@dataclass(frozen=True, eq=False)
class BoundaryCheckRecord:
    """Per node: Monte Carlo second moment, isometry target and their z-score."""

    x_nodes: np.ndarray
    variance_profile: np.ndarray
    expected_profile: np.ndarray
    z_profile: np.ndarray
    gamma_norm: float


# the first midpoint of a graded boundary kernel, floor sqrt(1e-3), is a normal
# float while its floor min(1e-7 t0, 0.02 d^2), d the node's distance to the
# nearer wall, is at least this
_BOUNDARY_FLOOR_MIN = math.sqrt(np.finfo(float).tiny * 1e3)


def _boundary_kernel_step(cfg: NeumannKernelConfig, x: float, y: float) -> StepFunction:
    """Graded step discretization of ``s -> g_N(s, x, y)`` on (0, t0].

    The edges are ``_graded_edges`` from the floor ``min(1e-7 t0, 0.02 d^2)``,
    d the distance from x to the nearer wall; each piece takes the kernel at
    its geometric midpoint, the first one at ``floor sqrt(1e-3)``.
    """
    floor = min(cfg.t0 * 1e-7, 0.02 * min(x, cfg.length - x) ** 2)
    edges = _graded_edges(floor, cfg.t0)
    mids = np.sqrt(edges[1:] * np.maximum(edges[:-1], floor * 1e-3))
    vals = neumann_heat_kernel(mids, x, y, cfg.length)
    return StepFunction(edges, vals)


def boundary_solution_check(
    cfg: NeumannKernelConfig,
    n_paths: int,
    *,
    grid_steps: int = 64,
    x_nodes=None,
    seed: int = 0,
) -> BoundaryCheckRecord:
    """Simulate the boundary-driven solution and z-test its second moments.

    One independent fBm component per boundary atom, with the Hurst index
    ``cfg.hurst``; the expected profile is the
    per-point isometry target (sum over atoms of squared kernel norms), and
    the gamma norm is the spatial L^p norm of its square root:
    ``gamma_norm_lp`` of the two atoms' kernel field, without computing the
    kernel norms again.  ``x_nodes`` overrides the default 15 uniform
    interior nodes, e.g. to cluster points toward a boundary.  Each kernel
    is ``_boundary_kernel_step`` on ``_KERNEL_PIECES`` graded pieces, and
    ``_graded_norms`` takes the 2 x n_nodes norms at once.  A node nearer a
    wall than the graded kernel resolves (about 4.9e-76), or a horizon
    below about 4.7e-146, is refused before any draw.
    """
    params = FracParams.fbm(cfg.hurst)
    grid = TimeGrid(0.0, cfg.t0 / grid_steps, grid_steps)
    if x_nodes is None:
        xs = cfg.length * np.arange(1, 16) / 16.0
    else:
        xs = np.asarray(x_nodes, dtype=float)
        # positive conditions, so that a NaN node fails them
        if not (
            xs.ndim == 1
            and np.all(xs > 0)
            and np.all(xs < cfg.length)
            and np.all(np.diff(xs) > 0)
        ):
            raise ValueError("x_nodes must increase strictly inside the domain")
    if not cfg.t0 * 1e-7 >= _BOUNDARY_FLOOR_MIN:
        raise ValueError(
            f"horizon t0 = {cfg.t0:g} is below {_BOUNDARY_FLOOR_MIN * 1e7:.3g}, the shortest "
            "the graded boundary kernels resolve"
        )
    wall = np.minimum(xs, cfg.length - xs)
    if not np.all(0.02 * wall**2 >= _BOUNDARY_FLOOR_MIN):
        i = int(np.argmin(wall))
        raise ValueError(
            f"x_nodes: node {xs[i]:g} is {wall[i]:g} from a wall; the graded boundary "
            f"kernels resolve wall distances down to {math.sqrt(_BOUNDARY_FLOOR_MIN / 0.02):.3g}"
        )
    cyl = simulate_cylindrical(params, grid, 2, n_paths, seed=seed)
    lags = (grid.n_steps - np.arange(grid.n_steps)) * grid.dt
    total = np.zeros((n_paths, xs.size))
    for atom, comp in zip((0.0, cfg.length), cyl.components):
        gmat = neumann_heat_kernel(
            lags[:, None], np.broadcast_to(xs, (lags.size, xs.size)), atom, cfg.length
        )
        total += comp.increments @ gmat

    steps = [_boundary_kernel_step(cfg, x, y) for x in xs for y in (0.0, cfg.length)]
    floors = [s.breakpoints[1] for s in steps]
    norms = _graded_norms(floors, cfg.t0, np.array([s.values for s in steps]), cfg.hurst)
    expected = np.sum(norms.reshape(-1, 2) ** 2, axis=1)
    variance, _, z = _second_moment_z(total, expected)
    # cell weights from the midpoints between nodes, extended to the walls
    w = np.diff(np.concatenate(([0.0], 0.5 * (xs[1:] + xs[:-1]), [cfg.length])))
    return BoundaryCheckRecord(
        x_nodes=xs,
        variance_profile=variance,
        expected_profile=expected,
        z_profile=z,
        gamma_norm=float(np.sum(w * np.sqrt(expected) ** cfg.p) ** (1.0 / cfg.p)),
    )
