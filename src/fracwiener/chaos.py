"""Finite Wiener chaos over a discretized white-noise window.

The driving noise is discretized on a uniform window that extends well to
the left of the observation interval, because the moving-average kernels
fed into it integrate from -infinity.  Single and double integrals against
the noise produce first and second chaos samples; the double integral
skips the diagonal, so its mean is exactly zero path by path in
expectation and its variance is twice the squared kernel norm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid
from .rng import block_generator, map_path_blocks

__all__ = [
    "DiscreteIsonormal",
    "double_wiener_integral",
    "moment_ratio",
]


@dataclass(frozen=True)
class DiscreteIsonormal:
    """White noise on a uniform grid, reproducible per (seed, stream).

    Increments are i.i.d. centered Gaussians with variance dt per cell, so
    sums against cell samples approximate L^2 inner products.  Draws come
    from counter-based substreams keyed by (seed, stream, block of paths),
    which makes every path's numbers independent of threading; the blocks
    run on the pool of ``rng.worker_threads`` when one is in effect.
    """

    grid: TimeGrid
    seed: int
    stream: int = 0

    @classmethod
    def for_window(
        cls, t_end: float, n_cells: int, seed: int, lead_factor: float = 10.0, stream: int = 0
    ) -> "DiscreteIsonormal":
        """Window [-lead_factor * t_end, t_end] with ``n_cells`` cells."""
        if t_end <= 0 or lead_factor < 0:
            raise ValueError("need t_end > 0 and a nonnegative lead factor")
        t0 = -lead_factor * t_end
        return cls(TimeGrid(t0, (t_end - t0) / n_cells, n_cells), seed, stream)

    @property
    def n_cells(self) -> int:
        return self.grid.n_steps

    def increment_block(self, block: int, n: int) -> np.ndarray:
        gen = block_generator(self.seed, self.stream, block)
        return gen.standard_normal((n, self.n_cells)) * np.sqrt(self.grid.dt)

    def first_order(self, v, n_paths: int) -> np.ndarray:
        """Single Wiener integral of cell samples ``v``, shape ``(n_paths,)``."""
        w = np.asarray(v, dtype=float)
        if w.shape != (self.n_cells,):
            raise ValueError("cell sample array has the wrong length")

        def run(block: int, sl: slice) -> np.ndarray:
            return self.increment_block(block, sl.stop - sl.start) @ w

        return map_path_blocks(run, n_paths)


def double_wiener_integral(kernel: np.ndarray, iso: DiscreteIsonormal, n_paths: int) -> np.ndarray:
    """Off-diagonal double Wiener integral of a symmetric grid kernel.

    ``kernel`` is the (n_cells, n_cells) symmetric matrix of kernel values
    at cell midpoints; the diagonal is excluded.  Returns one draw per
    path, shape ``(n_paths,)``.
    """
    mat = np.asarray(kernel, dtype=float)
    if mat.shape != (iso.n_cells, iso.n_cells):
        raise ValueError("kernel matrix does not match the noise grid")
    if not np.all(np.isfinite(mat)):
        raise ValueError("kernel values must be finite")
    if not np.allclose(mat, mat.T, rtol=1e-12, atol=1e-12):
        raise ValueError("kernel matrix must be symmetric")
    diag = np.diag(mat).copy()

    def run(block: int, sl: slice) -> np.ndarray:
        e = iso.increment_block(block, sl.stop - sl.start)
        te = e @ mat  # quadratic form via one GEMM, then a row dot
        return np.einsum("bi,bi->b", te, e) - (e * e) @ diag

    return map_path_blocks(run, n_paths)


def moment_ratio(values, q: float, p: float) -> float:
    """Ratio of empirical absolute-moment norms, (E|X|^q)^{1/q} / (E|X|^p)^{1/p}."""
    if q <= 0 or p <= 0:
        raise ValueError("moment exponents must be positive")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("sample is empty")
    num = np.mean(np.abs(values) ** q) ** (1.0 / q)
    den = np.mean(np.abs(values) ** p) ** (1.0 / p)
    if den == 0.0:
        raise ValueError("degenerate sample")
    return float(num / den)
