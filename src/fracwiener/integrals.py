"""Wiener integrals of step integrands against simulated fractional drivers.

Three layers live here:

* scalar elementary integrals (Stieltjes sums of the integrand's cell
  values against the ensemble's increments) and their isometry diagnostics;
* cylindrical integrals against a finite family of driver components,
  summable exactly when the column family is Hilbert-Schmidt;
* kernel-based gamma norms for L^p targets, plus the two finiteness
  conditions that decide integrability of an operator-norm profile
  (one for rough drivers, one for smooth).

Everything is deterministic given the input ensemble; Monte Carlo noise
enters only through the simulated paths themselves.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import StepFunction, TimeGrid
from .processes import CylindricalEnsemble, FracParams, PathEnsemble
from .sobolev import _dyadic_shell, _shell_integral, integrand_inner, integrand_norm

__all__ = [
    "ElementaryIntegralResult",
    "IsometryReport",
    "HSOperator",
    "LpKernelField",
    "elementary_integral",
    "isometry_report",
    "cylindrical_integral",
    "gamma_norm_lp",
    "condition_singular",
    "condition_regular",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ElementaryIntegralResult:
    """Per-path values of a Wiener integral, with provenance.

    ``f`` is the integrand as integrated, i.e. after any breakpoint
    snapping.  ``series_tail`` is the truncation-tail estimate for
    cylindrical results (0 for scalar integrals, which are exact).
    """

    samples: np.ndarray
    f: StepFunction
    snap_distance: float = 0.0
    series_tail: float = 0.0

    @property
    def n_paths(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class IsometryReport:
    """Monte Carlo second moment of the integral (the variance of a centred
    driver) against the exact integrand norm, z-tested by ``_second_moment_z``."""

    mc_var: float
    dh_norm_sq: float
    z_score: float
    se_var: float
    n_paths: int


def _snap_breakpoints(f: StepFunction, grid: TimeGrid):
    """Snap breakpoints to grid nodes within half a step; drop collapsed pieces."""
    if f.n_pieces == 0:
        return np.array([], dtype=int), np.array([]), 0.0
    idx = np.empty(f.breakpoints.size, dtype=int)
    moved = 0.0
    tol = 0.5 * grid.dt * (1 + 1e-9)
    for i, b in enumerate(f.breakpoints):
        k, dist = grid.nearest_node(b)
        if dist > tol:
            raise ValueError(
                f"breakpoint {b:g} lies off the ensemble grid "
                f"(snap tolerance is half a step, {0.5 * grid.dt:g})"
            )
        idx[i] = k
        moved = max(moved, dist)
    if moved > 1e-12 * grid.dt:
        log.info("snapped step-function breakpoints; largest move %.3g", moved)
    keep = idx[1:] > idx[:-1]
    vals = f.values[keep]
    edges = np.concatenate((idx[:-1][keep], idx[-1:]))
    return edges, vals, moved


def elementary_integral(f: StepFunction, ensemble: PathEnsemble) -> ElementaryIntegralResult:
    """Stieltjes sum of ``f`` against every path of the ensemble.

    It weights each path increment by the integrand's value on its cell.
    Breakpoints are snapped to the nearest grid node (at most half a step,
    logged); anything further off the grid is an error.
    """
    grid = ensemble.grid
    edges, vals, moved = _snap_breakpoints(f, grid)
    cells = np.zeros(grid.n_steps)
    if vals.size:
        cells[edges[0]:edges[-1]] = np.repeat(vals, np.diff(edges))
        snapped = StepFunction(grid.t0 + grid.dt * edges, vals)
    else:
        snapped = StepFunction.empty()
    samples = ensemble.increments @ cells
    return ElementaryIntegralResult(
        samples=samples,
        f=snapped,
        snap_distance=moved,
    )


def _second_moment_z(samples, target):
    """``(mc, se, z)`` along axis 0: ``mc = mean(samples**2)``, ``se`` the empirical
    standard error of the squares (no normality assumed), ``z = (mc - target) / se``
    (with ``se == 0``: 0 on target, ±inf off it).  The squares' moments are taken at
    the exact power-of-two scale of ``max|samples|``, so that ``samples**4`` cannot overflow.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < 2:
        raise ValueError(f"a second-moment z-test needs at least two samples, got {n}")
    mc = np.mean(samples**2, axis=0)
    e = np.frexp(np.max(np.abs(samples), axis=0))[1]
    sq = np.ldexp(samples, -e) ** 2
    se = np.std(sq, axis=0, ddof=1) / math.sqrt(n)
    gap = np.mean(sq, axis=0) - np.ldexp(target, -2 * e)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(gap == 0.0, 0.0, gap / se)
    return mc, np.ldexp(se, 2 * e), z


def isometry_report(f: StepFunction, ensemble: PathEnsemble) -> IsometryReport:
    """Compare the Monte Carlo second moment of the integral with the exact norm.

    The norm is evaluated for the snapped integrand, so the comparison is
    honest even when breakpoints moved.  A zero integrand reports z = 0.
    """
    res = elementary_integral(f, ensemble)
    dh_sq = integrand_norm(res.f, ensemble.params.h) ** 2
    mc, se, z = map(float, _second_moment_z(res.samples, dh_sq))
    return IsometryReport(mc_var=mc, dh_norm_sq=dh_sq, z_score=z, se_var=se, n_paths=res.n_paths)


@dataclass(frozen=True)
class HSOperator:
    """Finite-rank operator given by its step-function columns.

    Column ``k`` is the image of the k-th coordinate direction; the
    operator is Hilbert-Schmidt exactly when the squared column norms are
    summable, which for a finite tuple is automatic, so the interesting
    quantity is the decay of the column-norm series.
    """

    columns: tuple

    def __post_init__(self):
        cols = tuple(self.columns)
        if not cols:
            raise ValueError("operator needs at least one column")
        for c in cols:
            if not isinstance(c, StepFunction):
                raise ValueError("columns must be step functions")
        object.__setattr__(self, "columns", cols)

    @property
    def dim_u(self) -> int:
        return len(self.columns)

    def column_norms_sq(self, params: FracParams) -> np.ndarray:
        return np.array([integrand_norm(c, params.h) ** 2 for c in self.columns])

    def hs_norm_sq(self, params: FracParams) -> float:
        return float(np.sum(self.column_norms_sq(params)))


def cylindrical_integral(a: HSOperator, ens: CylindricalEnsemble) -> ElementaryIntegralResult:
    """Sum of the per-component integrals ``sum_k int (A e_k) dZ_k``.

    The result record carries ``series_tail``, a geometric-decay bound on
    the column-norm series beyond the configured dimension; it is infinite
    unless the columns are seen to decay.
    """
    if a.dim_u != ens.dim_u:
        raise ValueError(
            f"operator has {a.dim_u} columns but the ensemble carries "
            f"{ens.dim_u} components"
        )
    samples = None
    moved = 0.0
    combined = StepFunction.empty()
    variances = []
    for col, comp in zip(a.columns, ens.components):
        part = elementary_integral(col, comp)
        samples = part.samples if samples is None else samples + part.samples
        moved = max(moved, part.snap_distance)
        combined = combined + part.f
        variances.append(integrand_norm(part.f, comp.params.h) ** 2)
    return ElementaryIntegralResult(
        samples=samples,
        f=combined,
        snap_distance=moved,
        series_tail=_series_tail(variances),
    )


@dataclass(frozen=True)
class LpKernelField:
    """Pointwise kernel representation of an operator into an L^p space.

    ``kernels[i]`` is the tuple of per-component step functions attached
    to spatial node ``nodes[i]``; ``weights`` are the quadrature weights
    of the spatial discretization.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kernels: tuple
    p: float
    params: FracParams

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        kernels = tuple(tuple(k) for k in self.kernels)
        if nodes.size != weights.size or nodes.size != len(kernels):
            raise ValueError("need one kernel and one weight per spatial node")
        if nodes.size == 0:
            raise ValueError("field needs at least one spatial node")
        if np.any(weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        if self.p < 1:
            raise ValueError("integrability exponent p must be >= 1")
        dims = {len(k) for k in kernels}
        if len(dims) != 1:
            raise ValueError("all kernels must share the component dimension")
        for k in kernels:
            for c in k:
                if not isinstance(c, StepFunction):
                    raise ValueError("kernel components must be step functions")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "kernels", kernels)

    @property
    def dim_u(self) -> int:
        return len(self.kernels[0])

    def kernel_norms(self) -> np.ndarray:
        """Per-node norm: l2 over components of the integrand norms.

        The squared norms are ``integrand_inner(c, c)``, the bilinear
        covariance form: exact for step functions, and cheap for the finely
        graded kernels met here.
        """
        h = self.params.h
        return np.array(
            [math.sqrt(sum(max(integrand_inner(c, c, h), 0.0) for c in k)) for k in self.kernels]
        )


def gamma_norm_lp(field: LpKernelField) -> float:
    """Mixed norm of a pointwise-kernel field: spatial L^p of the kernel norms."""
    norms = field.kernel_norms()
    return float(np.sum(field.weights * norms**field.p) ** (1.0 / field.p))


# ---------------------------------------------------------------------------
# dyadic refinement toward a singular endpoint, and the finiteness conditions

_CRITICAL_RATIO = 0.96


def _stops_decaying(terms: Sequence[float]) -> bool:
    """Divergence rule of a refinement: its nonnegative terms stop decaying.

    Ratios of consecutive terms (positive predecessors) carry an O(1/K) bias
    that halves per level; the extrapolated ``2 r[-1] - r[-2]`` (or a single
    ratio) at or above _CRITICAL_RATIO reads as divergence, which separates
    slow geometric decay from power growth and the logarithmic critical case.
    """
    ratios = [terms[i] / terms[i - 1] for i in range(1, len(terms)) if terms[i - 1] > 0]
    if len(ratios) >= 2:
        return 2.0 * ratios[-1] - ratios[-2] >= _CRITICAL_RATIO
    return bool(ratios) and ratios[-1] >= _CRITICAL_RATIO


def _series_tail(terms: Sequence[float]) -> float:
    """Geometric extrapolation of a nonnegative series past its last term.

    The decay ratio is the geometric mean of the last (up to six) ratios
    of consecutive positive terms.  A series whose last term is positive
    but which is not seen to decay has no finite tail.
    """
    if not terms or terms[-1] <= 0.0:
        return 0.0
    ratios = [
        terms[i] / terms[i - 1]
        for i in range(max(1, len(terms) - 6), len(terms))
        if terms[i - 1] > 0 and terms[i] > 0
    ]
    if not ratios:
        return math.inf
    rho = float(np.exp(np.mean(np.log(ratios))))
    if rho >= 1.0:
        return math.inf
    return terms[-1] * rho / (1.0 - rho)


def _dyadic_sum(shell: Callable, max_shells: int, rtol: float):
    """Sum the contributions ``shell(j)`` of dyadic shells closing in on 0.

    Convergence is declared when a shell adds less than ``rtol`` of the
    running total; the remaining tail is extrapolated geometrically.
    When the cap is reached, divergence is declared if the contributions
    stop decaying by the shared rule ``_stops_decaying``, the one of
    ``spde.existence_report``.  Returns the value (``math.inf`` on
    divergence) and the partial sums.
    """
    total = 0.0
    terms, sums = [], []
    for j in range(max_shells):
        d = float(shell(j))
        total += d
        terms.append(d)
        sums.append(total)
        if total == 0.0:
            if j >= 7:
                return 0.0, sums
            continue
        if d <= rtol * total:
            return total + _series_tail(terms), sums
    if _stops_decaying(terms):
        return math.inf, sums
    return total + _series_tail(terms), sums


def condition_singular(g: Callable, hurst: float, tau: float) -> float:
    """Finiteness functional for rough drivers (hurst < 1/2).

    Evaluates ``int_0^tau g(u)^2 du`` plus the double integral of
    ``(g(u)-g(v))^2 |u-v|^{2H-2}`` over ``(0,tau)^2`` on dyadic shells
    graded toward 0 (12-point rules, at most 40 shells, relative shell
    tolerance 1e-8); within a shell, the lag ``w`` below each node, where
    the integrand goes like ``g'(u)^2 w^{2H}``, runs on ``_shell_integral``.
    ``g`` must accept numpy arrays and return operator norms.  Returns
    ``math.inf`` when the refinement diagnoses divergence.
    """
    if not 0.0 < hurst < 0.5:
        raise ValueError("singular-regime evaluator needs hurst in (0, 1/2)")
    if not tau > 0:
        raise ValueError("horizon tau must be positive")
    xg, wg = np.polynomial.legendre.leggauss(12)
    cache = []

    def absg(u):
        return np.abs(np.asarray(g(u), dtype=float))

    def shell(j: int) -> float:
        un, uw = _dyadic_shell(tau, j, xg, wg)
        gv = absg(un)
        d = float(uw @ gv**2)
        # same-shell diagonal: v = u - w for w up to the shell's lower edge
        spans = un - 0.5 * tau * 2.0 ** (-j)
        inner = [
            _shell_integral(lambda w, u=u, gu=gu: (gu - absg(u - w)) ** 2 * w ** (2.0 * hurst - 2.0),
                            span, 2.0 ** -(2.0 * hurst + 1.0))
            for u, gu, span in zip(un, gv, spans)
        ]
        d += 2.0 * float(uw @ inner)
        for un_m, uw_m, gv_m in cache:
            gap = un_m[:, None] - un[None, :]
            ker = (gv_m[:, None] - gv[None, :]) ** 2 * gap ** (2.0 * hurst - 2.0)
            d += 2.0 * float(uw_m @ ker @ uw)
        cache.append((un, uw, gv))
        return d

    return _dyadic_sum(shell, 40, 1e-8)[0]


def condition_regular(g: Callable, hurst: float, tau: float) -> float:
    """Finiteness functional for smooth drivers (hurst >= 1/2).

    Evaluates ``int_0^tau g(u)^{1/H} du`` on dyadic shells graded toward
    0 (16-point rule, at most 48 shells, relative shell tolerance 1e-9);
    divergence (including the logarithmic edge case) returns inf.
    """
    if not 0.5 <= hurst < 1.0:
        raise ValueError("regular-regime evaluator needs hurst in [1/2, 1)")
    if not tau > 0:
        raise ValueError("horizon tau must be positive")
    xg, wg = np.polynomial.legendre.leggauss(16)

    def shell(j: int) -> float:
        un, uw = _dyadic_shell(tau, j, xg, wg)
        gv = np.abs(np.asarray(g(un), dtype=float))
        return float(uw @ gv ** (1.0 / hurst))

    return _dyadic_sum(shell, 48, 1e-9)[0]
