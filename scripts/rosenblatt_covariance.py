#!/usr/bin/env python3
"""Covariance of the simulated Rosenblatt process against the exact kernel.

Simulates the second-chaos driver on [0, 1], estimates E X_s X_t on a
3 x 3 time grid and z-scores every entry against sigma^2 R_H(s, t).
Writes a CSV next to a one-line verdict; exit 1 when any |z| > 4.
"""
import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from fracwiener.chaos import DiscreteIsonormal
from fracwiener.grids import TimeGrid
from fracwiener.processes import FracParams, covariance_rh, simulate_hermite_k2
from fracwiener.rng import worker_threads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/rosenblatt", help="artifact directory")
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--hurst", type=float, default=0.75)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--noise-cells", type=int, default=1024)
    args = ap.parse_args()

    params = FracParams.rosenblatt(args.hurst)
    grid = TimeGrid(0.0, 0.25, 4)
    iso = DiscreteIsonormal.for_window(1.0, args.noise_cells, args.seed)
    with worker_threads(args.threads):
        paths = simulate_hermite_k2(params, grid, iso, args.paths).paths  # one running sum

    times = [0.25, 0.5, 1.0]
    idx = [1, 2, 4]
    rows = []
    worst = 0.0
    for i, s in zip(idx, times):
        for j, t in zip(idx, times):
            prod = paths[:, i] * paths[:, j]
            mc = float(np.mean(prod))
            exact = params.sigma**2 * covariance_rh(s, t, args.hurst)
            se = float(np.std(prod, ddof=1) / math.sqrt(args.paths))
            z = (mc - exact) / se
            worst = max(worst, abs(z))
            rows.append((s, t, mc, exact, z))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "covariance.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("s", "t", "mc_cov", "exact_cov", "z"))
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])

    ok = worst <= 4.0
    print(f"max |z| = {worst:.3f} over 9 grid points at {args.paths} paths "
          f"-> {'ok' if ok else 'DEVIATES'} ({out / 'covariance.csv'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
