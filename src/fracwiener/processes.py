"""Simulation of scalar and cylindrical H-fractional processes.

Two simulators live here; ``simulate_driver`` picks one by family.  fBm is
sampled exactly in law from its increment autocovariance, by a Cholesky
factor up to _CHOLESKY_MAX_STEPS grid steps and by circulant embedding above
(two paths per complex transform, its real and imaginary parts).
Second-chaos processes (Rosenblatt and the k = 2 generalized family) are
built as discrete double Wiener integrals of a moving-average kernel

    K_t(y1, y2) = C * int k_t^beta(u) (u - y1)_+^{a/2} (u - y2)_+^{a/2} du,

where k_t^beta(u) = ((t-u)_+^beta - (-u)_+^beta) / beta, or the indicator
of (0, t] when beta = 0.

Three choices make the discrete object accurate enough for covariance
checks at Monte Carlo precision:

* The noise coordinate is warped: linear on [-t_end, t_end], exponential
  to the left.  Admissible kernels decay like |y|^{a/2} with a in
  (-3/2, -1), so a flat window truncated at 10 t_end keeps an O(1)
  fraction of the kernel mass out of reach; the warp pushes the window
  edge to depth ~ c e^{A/c} at no extra cells.  Increments of Brownian
  motion under a time change y = phi(x) are sqrt(phi'(x)) times standard
  increments, so the warped object has exactly the right law.  The
  e-folding length c is ``warp_scale`` (default 0.6) times the horizon,
  the one resolution setting that callers pass; the filter-variable rule
  is fixed by the module constants _GL_POINTS, _GRADE and _U_STRIDE.
* Kernel columns are cell averages (exact antiderivative in the linear
  zone), making the discrete kernel the L2 projection of the true one.
* The diagonal is renormalized rather than dropped, which would lose a
  sqrt(dx) fraction of the variance (the kernel behaves like
  |y1 - y2|^{a+1} there).  F = Gbar dW has low numerical rank r, so
  F = a zeta with r standard normals zeta per path, a = sqrt(dx) Gbar V_r,
  where V_r spans the cell Gram dx Gbar^T Gbar up to _ENERGY_TOL of its
  trace.  V_r comes from a sketch of Gbar itself, so the n_cells x n_cells
  Gram is never formed, and Gbar is filled in row chunks.  With
  Q_t = a^T diag(w k_t(u)) a (r x r) the estimator is
  z_t = C [zeta^T Q_t zeta - tr Q_t], centred exactly.
* Q_t is sampled through its increments dQ_j = Q_{t_j} - Q_{t_{j-1}},
  each a GEMM over the filter rows where k_{t_j} - k_{t_{j-1}} is nonzero.
  Each dQ_j has low numerical rank (about 30 of r = 194 at 2048 cells):
  its eigenpairs (lambda_i, v_i) are kept up to _ENERGY_TOL of its trace
  norm sum |lambda| (the truncated dQ~_j sum to Q~_t), and z's increment is
      z_{t_j} - z_{t_{j-1}} = C sum_{i: j(i) = j} lambda_i [(zeta . v_i)^2 - 1],
  centred exactly, since E (zeta . v_i)^2 = 1: one GEMM of zeta against the
  kept vectors per path block.

Its covariance 2 C^2 tr(Q~_s Q~_t) is available in closed form
(hermite_covariance), which is also how the calibration constant C is
fixed; no pilot Monte Carlo run is involved.

Both simulators return the increments over the grid cells, whose running
sum is ``PathEnsemble.paths``.  They draw block by block through
``rng.map_path_blocks``, on the pool of ``rng.worker_threads`` when one is
in effect, and give the same increments at any worker count.  The
second-chaos operator of the last geometry is kept: drivers that differ
only in their seed or stream, such as the modes of a mild solve, share
one build.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .chaos import DiscreteIsonormal
from .grids import TimeGrid
from .rng import block_generator, map_path_blocks

__all__ = [
    "CylindricalEnsemble",
    "Family",
    "FracParams",
    "PathEnsemble",
    "covariance_rh",
    "hermite_covariance",
    "simulate_cylindrical",
    "simulate_driver",
    "simulate_fbm",
    "simulate_hermite_k2",
]


class Family(Enum):
    FBM = "fbm"
    ROSENBLATT = "rosenblatt"
    GENERALIZED = "generalized"


@dataclass(frozen=True)
class FracParams:
    """Parameter set of an H-fractional process.

    For the generalized family the admissible region is
    alpha in (-k/2 - 1/2, -k/2), beta in (-alpha - k/2 - 1, -alpha - k/2),
    and then H = alpha + beta + k/2 + 1 lands in (0, 1) automatically.
    """

    family: Family
    h: float
    alpha: Optional[float] = None
    beta: Optional[float] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.family is Family.FBM:
            if not 0.0 < self.h < 1.0:
                raise ValueError("H must lie in (0, 1)")
            return
        if self.family is Family.ROSENBLATT:
            if not 0.5 < self.h < 1.0:
                raise ValueError("Rosenblatt requires H in (1/2, 1)")
            object.__setattr__(self, "alpha", self.h - 2.0)
            object.__setattr__(self, "beta", 0.0)
            object.__setattr__(self, "k", 2)
            return
        # generalized
        if self.alpha is None or self.beta is None or self.k is None:
            raise ValueError("generalized family needs alpha, beta, k")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("k must be a positive integer")
        k = int(self.k)
        lo_a, hi_a = -k / 2.0 - 0.5, -k / 2.0
        lo_b, hi_b = -self.alpha - k / 2.0 - 1.0, -self.alpha - k / 2.0
        if not (lo_a < self.alpha < hi_a and lo_b < self.beta < hi_b):
            raise ValueError("parameters outside the admissible (alpha, beta, k) region")
        h = self.alpha + self.beta + k / 2.0 + 1.0
        if abs(h - self.h) > 1e-12:
            raise ValueError("H inconsistent with alpha + beta + k/2 + 1")

    @classmethod
    def fbm(cls, h: float) -> "FracParams":
        return cls(Family.FBM, h)

    @classmethod
    def rosenblatt(cls, h: float) -> "FracParams":
        return cls(Family.ROSENBLATT, h)

    @classmethod
    def generalized(cls, alpha: float, beta: float, k: int) -> "FracParams":
        h = alpha + beta + k / 2.0 + 1.0
        return cls(Family.GENERALIZED, h, alpha=alpha, beta=beta, k=k)

    @property
    def chaos_order(self) -> int:
        if self.family is Family.FBM:
            return 1
        return int(self.k)


def covariance_rh(s, t, h: float):
    """The fractional covariance (|s|^2H + |t|^2H - |t-s|^2H) / 2, elementwise."""
    if not 0.0 < h < 1.0:
        raise ValueError("H must lie in (0, 1)")
    return 0.5 * (np.abs(s) ** (2 * h) + np.abs(t) ** (2 * h) - np.abs(t - s) ** (2 * h))


def _increment_covariance(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Covariance of unit-scale fBm increments over the cells of edge arrays a and b.

    Entry (i, j) is E[(B(a[i+1]) - B(a[i])) (B(b[j+1]) - B(b[j]))], the mixed
    second difference of covariance_rh.
    """
    r = covariance_rh(a[:, None], b[None, :], h)
    return r[1:, 1:] - r[1:, :-1] - r[:-1, 1:] + r[:-1, :-1]


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Driver paths on a grid from 0, held as their changes over its cells."""

    grid: TimeGrid
    increments: np.ndarray  # (n_paths, n_steps)
    params: FracParams

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def paths(self) -> np.ndarray:
        """(n_paths, n_steps + 1) node values, the running sum from 0; a new array per access."""
        out = np.zeros((self.n_paths, self.increments.shape[1] + 1))
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out


@dataclass(frozen=True, eq=False)
class CylindricalEnsemble:
    """Finitely many independent scalar components on a shared grid."""

    components: tuple

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("need at least one component")
        g = self.components[0].grid
        if any(c.grid != g for c in self.components):
            raise ValueError("components must share a grid")

    @property
    def dim_u(self) -> int:
        return len(self.components)

    @property
    def grid(self) -> TimeGrid:
        return self.components[0].grid


def _require_zero_start(grid: TimeGrid):
    if abs(grid.t0) > 1e-14:
        raise ValueError("path grids must start at t = 0")


# ---------------------------------------------------------------------------
# fractional Brownian motion


# Cholesky draws n normals per path, circulant 2n, but its O(n^2) product per
# path catches up with the O(n log n) transform near here (2 cores, BLAS on 1
# thread, 2 workers: 1.6x faster at 256 steps, 1.1-1.3x slower at 1024, 1.75x at 2048)
_CHOLESKY_MAX_STEPS = 1024
# float64 normals of one row chunk of a Cholesky draw (128 KB), so a block's
# normals never exist all at once.  A chunk this large is past the sizes where
# OpenBLAS takes its small-matrix kernels, which round differently from its
# blocked product (rows * steps <= 1200 for this product on x86-64).  Measured
# on a 2-core x86-64 box with one BLAS thread: spde-holder's solve at 2
# workers peaks at 146 MB against 148 MB at 2^16 and 169 MB unchunked, and
# runs 5% slower than at 2^16; analytic-sweep's fBm draws leave 2-4 MB more
# resident at 2^16 than here
_NORMAL_CHUNK_ELEMENTS = 1 << 14


def simulate_fbm(
    params: FracParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    stream: int = 0,
) -> PathEnsemble:
    """Exact Gaussian sampling of fBm increments over the grid cells; the grid
    size picks Cholesky (up to _CHOLESKY_MAX_STEPS steps) or circulant embedding."""
    if params.family is not Family.FBM:
        raise ValueError("simulate_fbm needs FBM parameters")
    _require_zero_start(grid)
    # the increment autocovariance: the first cell against the cells of lags 0 .. n
    lags = grid.dt * np.arange(grid.n_steps + 2)
    with np.errstate(over="ignore", invalid="ignore"):  # huge lags: checked once below
        gamma = _increment_covariance(lags[:2], lags, params.h)[0]
    if not np.all(np.isfinite(gamma)):
        raise ValueError(f"the fBm increment autocovariance is not finite at grid step {grid.dt:g} "
                         f"and H = {params.h:g}; use a time window of moderate length")
    small = grid.n_steps <= _CHOLESKY_MAX_STEPS
    draw = (_fbm_cholesky_drawer if small else _fbm_circulant_drawer)(gamma)

    def run(block: int, sl: slice) -> np.ndarray:
        gen = block_generator(seed, stream, block)
        return draw(gen, sl.stop - sl.start)

    return PathEnsemble(grid, map_path_blocks(run, n_paths), params)


def _fbm_cholesky_drawer(gamma: np.ndarray):
    # the Toeplitz matrix of gamma[:n] is the covariance of the n increments
    n = gamma.size - 1
    idx = np.arange(n)
    try:
        chol = np.linalg.cholesky(gamma[np.abs(idx[:, None] - idx)])
    except np.linalg.LinAlgError:
        raise ValueError("covariance factorization failed: grid too fine")

    rows = max(1, _NORMAL_CHUNK_ELEMENTS // n)

    def draw(gen: np.random.Generator, b: int) -> np.ndarray:
        # the normals come in row chunks, each multiplied straight into its
        # rows of the output: the same numbers and products as one (b, n)
        # draw.  A short last chunk joins the one before it, so no chunk of a
        # longer block is small enough for the one-row or small-matrix kernels
        # of the BLAS, which round differently from its blocked product
        out = np.empty((b, n))
        lo = 0
        while lo < b:
            hi = b if b - lo < 2 * rows else lo + rows
            np.matmul(gen.standard_normal((hi - lo, n)), chol.T, out=out[lo:hi])
            lo = hi
        return out

    return draw


def _fbm_circulant_drawer(gamma: np.ndarray):
    # circulant embedding of the increment autocovariance
    n = gamma.size - 1
    circ = np.concatenate([gamma, gamma[-2:0:-1]])
    eig = np.fft.fft(circ).real
    if eig.min() < -1e-9 * eig.max():
        raise ValueError("circulant embedding not nonnegative")
    eig = np.maximum(eig, 0.0)
    m = circ.size
    scale = np.sqrt(eig / m)

    def draw(gen: np.random.Generator, b: int) -> np.ndarray:
        # one complex transform carries two independent paths: the covariance
        # of its real and imaginary parts is sum_j eig_j sin(.) / m, which
        # vanishes because eig_j = eig_{m-j}
        h = (b + 1) // 2
        fgn = np.fft.fft(gen.standard_normal((h, 2 * m)).view(np.complex128) * scale, axis=1)
        return np.concatenate([fgn.real[:, :n], fgn.imag[:b - h, :n]])

    return draw


# ---------------------------------------------------------------------------
# second-chaos processes (k = 2)


# Filter-variable rule: _GL_POINTS Gauss nodes on each piece of every panel,
# pieces cut at _GRADE and its mirror; panel edges at every _U_STRIDE-th cell
# edge of the stretched zone
_GL_POINTS = 4
_GRADE = np.array([0.12, 0.45])
_U_STRIDE = 4


def _warp(x: np.ndarray, x_b: float, c: float):
    y = np.where(x >= x_b, x, x_b - c * np.expm1((x_b - x) / c))
    jac = np.where(x >= x_b, 1.0, np.exp((x_b - x) / c))
    return y, jac


def _pos_pow(base: np.ndarray, expo: float) -> np.ndarray:
    # (base)_+^expo with 0^negative treated as 0
    return np.power(base, expo, out=np.zeros_like(base), where=base > 0)


def _filter_weight(t: float, u: np.ndarray, beta: float) -> np.ndarray:
    if beta == 0.0:
        return ((u > 0) & (u <= t)).astype(float)
    return (_pos_pow(t - u, beta) - _pos_pow(-u, beta)) / beta


# float64 elements of one row chunk of a _cell_averages temporary (128 KB): it
# stays in cache and under glibc's default mmap threshold, so a fresh process
# reuses heap pages instead of faulting in new ones per chunk (2048 cells, one
# core of a 2-core box: 0.17 s, against 0.20 s at 2^17 and 0.26 s unchunked)
_CELL_CHUNK_ELEMENTS = 1 << 14


def _cell_averages(u: np.ndarray, x_edges: np.ndarray, x_b: float, c: float,
                   alpha: float) -> np.ndarray:
    """Cell averages of (u - phi(x))_+^{alpha/2} sqrt(phi'(x)), in row chunks of u."""
    nu = alpha / 2.0 + 1.0
    out = np.empty((u.size, x_edges.size - 1))
    # cells from i_lin on form the linear zone: one power per shared edge
    i_lin = int(np.searchsorted(x_edges[:-1], x_b - 1e-15))
    edges = x_edges[i_lin:]
    denom = nu * np.diff(edges)
    # stretched zone: integrand is smooth there, 2-point Gauss per cell
    a_, b_ = x_edges[:i_lin], x_edges[1:i_lin + 1]
    mid, off = 0.5 * (a_ + b_), 0.5 * (b_ - a_) / np.sqrt(3.0)
    gauss = [_warp(xq, x_b, c) for xq in (mid - off, mid + off)]
    rows = max(1, _CELL_CHUNK_ELEMENTS // x_edges.size)
    for lo in range(0, u.size, rows):
        uc = u[lo:lo + rows, None]
        pw = _pos_pow(uc - edges, nu)
        out[lo:lo + rows, i_lin:] = (pw[:, :-1] - pw[:, 1:]) / denom
        if i_lin:
            acc = 0.0
            for y, j in gauss:
                acc = acc + _pos_pow(uc - y, alpha / 2.0) * np.sqrt(j)
            out[lo:lo + rows, :i_lin] = 0.5 * acc
    return out


def _graded_gauss(edges: np.ndarray):
    xg, wg = leggauss(_GL_POINTS)
    cuts = np.concatenate([[0.0], _GRADE, 1.0 - _GRADE[::-1], [1.0]])
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        for lo_f, hi_f in zip(cuts[:-1], cuts[1:]):
            lo, hi = a + (b - a) * lo_f, a + (b - a) * hi_f
            nodes.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
            weights.append(0.5 * (hi - lo) * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def _filter_nodes(times: np.ndarray, beta: float, y_edges: np.ndarray, x_edges: np.ndarray,
                  x_b: float, c: float):
    """Quadrature nodes/weights covering the support of k_t^beta."""
    t_max = float(np.max(times))
    pos = y_edges[(y_edges > 0) & (y_edges < t_max)]
    base = np.unique(np.concatenate([[0.0], times[times > 0], pos]))
    if beta != 0.0:
        # filter support extends over the whole negative axis
        xe = x_edges[x_edges < 0.0]
        neg = _warp(xe[::_U_STRIDE], x_b, c)[0]
        base = np.unique(np.concatenate([neg, base]))
    return _graded_gauss(base)


# Relative energy the rank-r factor may drop (the covariance then matches the
# full pairing to ~1e-15); the fixed sketch key keeps it free of the path seed.
_ENERGY_TOL = 1e-13
_SKETCH_KEY = 0x5EC0DC4A05
# float64 elements of one zeta @ basis chunk in sample_block (16 MB), so a wide
# basis does not hold an (n_paths, m) array per block.  The generalized family
# at 512 cells keeps m = 3937 columns: its isometry run (8000 paths, 2 workers,
# 2-core box, one BLAS thread) peaks at 204 MB against 298 MB at 2^23, in the
# same time
_CHUNK_ELEMENTS = 1 << 21


def _sq_norm(x: np.ndarray) -> float:
    # squared Frobenius norm without an x-sized temporary: rows, then a pairwise sum
    return float(np.einsum("ij,ij->i", x, x).sum())


def _low_rank_factor(gbar: np.ndarray, dx: float):
    """Factor a (n_u x r) with a a^T = dx gbar gbar^T up to _ENERGY_TOL, and its dropped energy.

    a = sqrt(dx) gbar V_r, where V_r spans the top of the cell Gram
    M = dx gbar^T gbar, which is never formed: a randomized range finder
    (Halko, Martinsson & Tropp 2011) sketches Y = gbar^T Omega, and its width
    doubles from 64 until trace(M) - trace(V_r^T M V_r) is small enough.  A
    wider sketch only adds columns: they are orthonormalized against the
    basis Q so far (two passes of block Gram-Schmidt), and B = gbar Q grows
    by gbar times them.  The energies are the eigenvalues of
    dx B^T B = Q^T M Q.  The dropped energy is 1 - ||a||_F^2 / trace(M),
    exact because trace(M) = dx ||gbar||_F^2.
    """
    n_u, n = gbar.shape
    total = dx * _sq_norm(gbar)
    gen = np.random.Generator(np.random.Philox(key=_SKETCH_KEY))
    q, b = np.empty((n, 0)), np.empty((n_u, 0))
    while True:
        width = min(2 * q.shape[1] or 64, n)
        y = gbar.T @ gen.standard_normal((n_u, width - q.shape[1]))
        for _ in range(2):
            y = np.linalg.qr(y - q @ (q.T @ y))[0]
        q, b = np.hstack([q, y]), np.hstack([b, gbar @ y])
        lam, w = np.linalg.eigh(dx * (b.T @ b))
        fits = np.flatnonzero(total - np.cumsum(lam[::-1]) <= _ENERGY_TOL * total)
        if fits.size or width == n:
            r = fits[0] + 1 if fits.size else n
            a = np.sqrt(dx) * (b @ w[:, ::-1][:, :r])
            return a, 1.0 - _sq_norm(a) / total


# a mild solve asks every mode for the operator of one geometry, from every
# worker at once; the lock makes the first ask build it and the rest wait for it
_OPERATOR_LOCK = threading.Lock()


@lru_cache(maxsize=1)
def _operator_parts(params: FracParams, times: tuple, noise: TimeGrid, warp_scale: float):
    """The seed-free part of ``_HermiteOperator``: ``(rank, dropped, covariance, basis, weights)``.

    It depends on the noise window ``noise`` but not on the seed or stream
    of its white noise, so operators that differ only there share one build.
    The arrays are read-only.
    """
    if params.family is Family.FBM or params.chaos_order != 2:
        raise ValueError("second-chaos simulator needs a k = 2 family")
    times = np.array(times)
    t_end = float(np.max(times))
    if noise.t_end < t_end - 1e-12:
        raise ValueError("noise window ends before the requested horizon")
    x_edges = noise.nodes
    x_b = -t_end
    c = warp_scale * t_end
    y_edges, _ = _warp(x_edges, x_b, c)
    u, w = _filter_nodes(times, params.beta, y_edges, x_edges, x_b, c)
    gbar = _cell_averages(u, x_edges, x_b, c, params.alpha)
    a, dropped = _low_rank_factor(gbar, noise.dt)
    del gbar
    rank = a.shape[1]
    # increment forms dQ_j = Q_{s_j} - Q_{s_{j-1}} over the sorted distinct
    # times s_j (Q = 0 before s_0), each from the rows where its filter
    # difference is nonzero: one contiguous range, since u ascends
    steps, col = np.unique(times, return_inverse=True)
    forms = np.empty((steps.size, rank, rank))  # truncated Q_{s_j}, cumulated
    acc = np.zeros((rank, rank))
    # kept eigenpairs, one row each; the pages past the last row written are
    # never touched, so this holds no more memory than the basis
    basis_t, lams = np.empty((steps.size * rank, rank)), np.empty(steps.size * rank)
    first = np.empty(steps.size * rank, dtype=np.intp)  # increment of each pair
    m = 0
    k_prev = np.zeros_like(u)
    for j, s in enumerate(steps):
        k = _filter_weight(s, u, params.beta)
        dw = w * (k - k_prev)
        k_prev = k
        nz = np.flatnonzero(dw)
        if nz.size:
            rows = slice(nz[0], nz[-1] + 1)
            lam, vec = np.linalg.eigh((a[rows] * dw[rows, None]).T @ a[rows])
            # drop the smallest |lambda| while their sum stays within
            # _ENERGY_TOL of the trace norm, as the factor drops energy
            order = np.argsort(np.abs(lam))
            mass = np.cumsum(np.abs(lam[order]))
            keep = order[np.searchsorted(mass, _ENERGY_TOL * mass[-1], side="right"):]
            new = slice(m, m + keep.size)
            basis_t[new], lams[new], first[new] = vec[:, keep].T, lam[keep], j
            acc += basis_t[new].T @ (basis_t[new] * lams[new, None])
            m = new.stop
        forms[j] = acc
    flat = forms.reshape(steps.size, -1)
    raw_cov = 2.0 * (flat @ flat.T)[np.ix_(col, col)]  # 2 tr(Q_s Q_t); every Q_t is symmetric
    raw_end = raw_cov[np.argmax(times), np.argmax(times)]
    if raw_end <= 0:
        raise ValueError("degenerate kernel discretization")
    scale = t_end**params.h / np.sqrt(raw_end)  # calibrated to t_end^2H
    covariance = scale**2 * raw_cov
    basis = basis_t[:m].T  # r x m, column-major
    # weights[i, j - 1] = C lambda_i on the increment j of eigenpair i, 0 elsewhere
    weights = (scale * lams[:m, None]) * (first[:m, None] == np.arange(1, steps.size))
    for arr in (covariance, basis, weights):
        arr.setflags(write=False)
    return rank, dropped, covariance, basis, weights


class _HermiteOperator:
    """Rank-r quadratic forms Q_t = a^T diag(omega_t) a, their increments'
    eigenpairs and their covariance; z's increments between consecutive distinct times."""

    def __init__(self, params: FracParams, times: np.ndarray, iso: DiscreteIsonormal,
                 warp_scale: float):
        key = (params, tuple(np.asarray(times, dtype=float).tolist()), iso.grid, float(warp_scale))
        with _OPERATOR_LOCK:
            self.rank, self.dropped, self.covariance, self.basis, self.weights = (
                _operator_parts(*key)
            )
        self.trace = self.weights.sum(axis=0)  # tr dQ~_j, as E (zeta . v_i)^2 = 1
        # zeta = V_r^T xi is white noise on r unit cells: the same keys
        # (seed, stream, block) draw r standard normals per path
        self.latent = DiscreteIsonormal(TimeGrid(0.0, 1.0, self.rank), iso.seed, iso.stream)

    def sample_block(self, block: int, b: int) -> np.ndarray:
        # dz_j = sum_i weights[i, j] (zeta . v_i)^2 - tr dQ~_j, over chunks of basis columns
        zeta = self.latent.increment_block(block, b)
        out = np.tile(-self.trace, (b, 1))
        step = max(1, _CHUNK_ELEMENTS // b)
        for lo in range(0, self.basis.shape[1], step):
            v = zeta @ self.basis[:, lo:lo + step]
            np.square(v, out=v)
            out += v @ self.weights[lo:lo + step]
            del v  # the next chunk is allocated only after this one is freed
        return out


def simulate_hermite_k2(
    params: FracParams,
    grid: TimeGrid,
    iso: DiscreteIsonormal,
    n_paths: int,
    warp_scale: float = 0.6,
) -> PathEnsemble:
    """Second-chaos increments over the grid cells, calibrated to t^2H.

    ``warp_scale`` is the e-folding length of the coordinate warp in units
    of the horizon.
    """
    _require_zero_start(grid)
    op = _HermiteOperator(params, grid.nodes, iso, warp_scale)
    increments = map_path_blocks(lambda blk, sl: op.sample_block(blk, sl.stop - sl.start), n_paths)
    return PathEnsemble(grid, increments, params)


def hermite_covariance(
    params: FracParams,
    times: Sequence[float],
    iso: DiscreteIsonormal,
    warp_scale: float = 0.6,
) -> np.ndarray:
    """Exact covariance matrix of the discrete second-chaos object.

    This is what the simulated ensemble converges to in Monte Carlo; its
    distance to R_H measures the discretization quality alone.
    ``warp_scale`` is the one of ``simulate_hermite_k2``.
    """
    op = _HermiteOperator(params, np.asarray(times, dtype=float), iso, warp_scale)
    return op.covariance.copy()  # the operator's array is the cached build's


# ---------------------------------------------------------------------------
# drivers by noise stream, and the cylindrical version


def simulate_driver(params: FracParams, grid: TimeGrid, n_paths: int, seed: int, stream: int,
                    n_noise_cells: int) -> PathEnsemble:
    """Driver paths on noise stream ``stream``: fBm, or second chaos on the
    stream's noise window ending at ``grid.t_end``."""
    if params.family is Family.FBM:
        return simulate_fbm(params, grid, n_paths, seed, stream)
    iso = DiscreteIsonormal.for_window(grid.t_end, n_noise_cells, seed, stream=stream)
    return simulate_hermite_k2(params, grid, iso, n_paths)


def simulate_cylindrical(
    params: FracParams,
    grid: TimeGrid,
    dim_u: int,
    n_paths: int,
    seed: int,
    n_noise_cells: int = 512,
) -> CylindricalEnsemble:
    """dim_u independent scalar copies; component j uses noise stream j."""
    if dim_u < 1:
        raise ValueError("dim_u must be at least 1")
    return CylindricalEnsemble(tuple(simulate_driver(params, grid, n_paths, seed, j, n_noise_cells)
                                     for j in range(dim_u)))
