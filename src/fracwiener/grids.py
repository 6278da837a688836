"""Uniform time grids, step functions, and piecewise-constant grid functions.

These are the shared carriers for the whole package: integrands are step
functions with finitely many pieces (zero outside their support), sampled
data lives on uniform grids with cell-value semantics, i.e. ``samples[k]``
is the value on the half-open cell ``[t0 + k*dt, t0 + (k+1)*dt)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "TimeGrid",
    "StepFunction",
    "GridFunction",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with nodes ``t0 + k*dt`` for ``k = 0 .. n_steps``."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise ValueError("grid origin must be finite")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("grid step must be positive and finite")
        if self.n_steps < 1 or self.n_steps % 1 != 0:
            raise ValueError("grid needs an integer number of steps >= 1")

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    @property
    def cell_midpoints(self) -> np.ndarray:
        return self.t0 + self.dt * (np.arange(self.n_steps) + 0.5)

    def nearest_node(self, t: float) -> tuple[int, float]:
        """Index of the node closest to ``t`` and the snapping distance."""
        k = int(round((t - self.t0) / self.dt))
        k = min(max(k, 0), self.n_steps)
        return k, abs(self.t0 + k * self.dt - t)


def _as_1d(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one dimensional")
    return arr


@dataclass(frozen=True)
class StepFunction:
    """Finite step function, zero outside ``[breakpoints[0], breakpoints[-1])``.

    ``values[j]`` is the value on ``[breakpoints[j], breakpoints[j+1])``.
    The empty function (no pieces) is allowed and behaves as identically zero.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _as_1d(self.breakpoints, "breakpoints")
        vals = _as_1d(self.values, "values")
        if bp.size == 0 and vals.size == 0:
            object.__setattr__(self, "breakpoints", bp)
            object.__setattr__(self, "values", vals)
            return
        if bp.size != vals.size + 1:
            raise ValueError("need len(breakpoints) == len(values) + 1")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(vals)):
            raise ValueError("breakpoints and values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def indicator(cls, a: float, b: float) -> "StepFunction":
        return cls(np.array([a, b]), np.array([1.0]))

    @classmethod
    def empty(cls) -> "StepFunction":
        return cls(np.array([]), np.array([]))

    @property
    def n_pieces(self) -> int:
        return self.values.size

    @property
    def support(self) -> tuple[float, float]:
        if self.n_pieces == 0:
            return (0.0, 0.0)
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        if self.n_pieces == 0:
            return out
        idx = np.searchsorted(self.breakpoints, r, side="right") - 1
        inside = (idx >= 0) & (idx < self.n_pieces)
        out[inside] = self.values[idx[inside]]
        return out

    def jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges and the rise of f across each edge, left to right.

        Returns ``(edges, rise)`` with ``rise[i] = f(edges[i]+) - f(edges[i]-)``.
        The rises always sum to zero because f vanishes at both ends.
        """
        if self.n_pieces == 0:
            return np.array([]), np.array([])
        padded = np.concatenate(([0.0], self.values, [0.0]))
        return self.breakpoints.copy(), np.diff(padded)

    def scaled(self, c: float) -> "StepFunction":
        return StepFunction(self.breakpoints, c * self.values)

    def precompose_affine(self, a: float, b: float) -> "StepFunction":
        """The step function ``x -> f(a*x + b)`` for ``a != 0``."""
        if a == 0:
            raise ValueError("affine scale must be nonzero")
        bp = (self.breakpoints - b) / a
        vals = self.values
        if a < 0:
            bp = bp[::-1]
            vals = vals[::-1]
        return StepFunction(bp, vals)

    def restricted(self, lo: float, hi: float) -> "StepFunction":
        """Pointwise product with the indicator of ``[lo, hi)``."""
        if not hi > lo:
            return StepFunction.empty()
        if self.n_pieces == 0:
            return StepFunction.empty()
        a, b = self.support
        lo, hi = max(lo, a), min(hi, b)
        if not hi > lo:
            return StepFunction.empty()
        inner = self.breakpoints[(self.breakpoints > lo) & (self.breakpoints < hi)]
        bp = np.concatenate(([lo], inner, [hi]))
        vals = self(0.5 * (bp[:-1] + bp[1:]))
        f = StepFunction(bp, vals)
        return f.dropped_zero_tails()

    def dropped_zero_tails(self) -> "StepFunction":
        """Trim leading and trailing zero pieces (canonical support)."""
        if self.n_pieces == 0:
            return self
        nz = np.flatnonzero(self.values != 0)
        if nz.size == 0:
            return StepFunction.empty()
        j0, j1 = nz[0], nz[-1] + 1
        return StepFunction(self.breakpoints[j0 : j1 + 1], self.values[j0:j1])

    def combine(self, other: "StepFunction", op: Callable) -> "StepFunction":
        """Pointwise combination on the merged partition; op(0, 0) must be 0."""
        bp = np.union1d(self.breakpoints, other.breakpoints)
        if bp.size < 2:
            return StepFunction.empty()
        mids = 0.5 * (bp[:-1] + bp[1:])
        vals = op(self(mids), other(mids))
        return StepFunction(bp, vals).dropped_zero_tails()

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return self.combine(other, np.add)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self.combine(other, np.subtract)

    def to_grid(self, grid: TimeGrid) -> "GridFunction":
        """Cell-value sampling at cell midpoints.

        Exact whenever every breakpoint lies on a grid node; otherwise the
        result is the nearest piecewise-constant representative on the grid.
        """
        return GridFunction(grid, self(grid.cell_midpoints))


@dataclass(frozen=True)
class GridFunction:
    """Values on the cells of a uniform grid, zero outside the window."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if np.iscomplexobj(arr):
            raise ValueError("samples must be real")
        if arr.ndim != 1:
            raise ValueError("samples must be one dimensional")
        if arr.size != self.grid.n_steps:
            raise ValueError("need one sample per grid cell")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr.astype(float))
