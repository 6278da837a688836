"""Benchmark workloads: the configs each one runs and the columns it checks.

A workload is a fixed sequence of ``fracwiener run`` configs.  The
benchmark seed picks the config seed, so the same benchmark seed always
gives the same configs.  Deterministic columns are checked against
``reference.json``, which holds the values recorded for every config seed;
Monte Carlo columns only have to be finite, because a change may alter
the random stream.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# config seeds with recorded reference values; benchmark seed n runs
# config seed n % CONFIG_SEEDS
CONFIG_SEEDS = 16

# every run uses two worker threads with BLAS pinned to one thread, so a
# run never asks for more than the two cores of the reference box
THREADS = 2
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# tolerance for deterministic columns against the recorded values
REF_RTOL = 1e-6
REF_ATOL = 1e-12

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Columns:
    """How to read one kind's results.csv: row key, checked and MC columns."""

    key: tuple
    reference: tuple
    monte_carlo: tuple = ()
    summary_reference: tuple = ()


COLUMNS = {
    "isometry": Columns(("family", "H", "f-id"), ("dh_norm_sq",), ("mc_var", "z")),
    "spde-distributed": Columns(
        ("mode",), ("eigenvalue", "expected_second_moment"), ("mc_second_moment", "z")
    ),
    "norm-identity": Columns(("H", "f-id"), ("dh_norm", "fourier_norm", "ratio")),
    "threshold-sweep": Columns(("H", "alpha"), ("gamma_norm", "diverged")),
    "spde-boundary": Columns(
        ("x",), ("expected_variance",), ("mc_variance", "z"), ("integral_value",)
    ),
}


@dataclass(frozen=True)
class Config:
    kind: str
    params: dict
    smoke: dict = field(default_factory=dict)

    def text(self, seed: int, smoke: bool = False) -> str:
        params = {**self.params, **self.smoke} if smoke else self.params
        lines = ["config_version = 1", f"kind = {self.kind}", f"seed = {seed}"]
        lines += [f"{k} = {v}" for k, v in params.items()]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple


def config_seed(seed: int) -> int:
    return seed % CONFIG_SEEDS


README_HURST = "0.1, 0.25, 0.4, 0.6, 0.75, 0.9"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chaos2-isometry",
            "Rosenblatt isometry at 40k paths: simulate_hermite_k2 (operator build and "
            "per-block GEMM) is ~98% of the time; the mechanism of a low-rank sampler.",
            (
                Config(
                    "isometry",
                    {
                        "family": "rosenblatt",
                        "hurst": 0.75,
                        "n_paths": 40000,
                        "n_functions": 6,
                        "grid_steps": 8,
                        "pieces": 3,
                        "n_noise_cells": 2048,
                    },
                    smoke={"n_paths": 2048, "n_noise_cells": 256},
                ),
            ),
        ),
        Workload(
            "spde-holder",
            "fBm mild solution with a Holder fit: 32 per-mode simulate_fbm draws, "
            "solve_mild and the fit, no second chaos; mode 4 fails its z-test "
            "(the -lambda_k*dt bias) and that stays visible.",
            (
                Config(
                    "spde-distributed",
                    {
                        "family": "fbm",
                        "hurst": 0.4,
                        "m": 1,
                        "length": 3.141592653589793,
                        "truncation": 32,
                        "grid_steps": 256,
                        "t_end": 1,
                        "n_paths": 4000,
                        "alpha": 0,
                        "fit_holder": "true",
                        "holder_floor": 0.1,
                    },
                    smoke={"truncation": 4, "n_paths": 256},
                ),
            ),
        ),
        Workload(
            "analytic-sweep",
            "norm-identity, threshold-sweep and spde-boundary: both integrand_norm "
            "routes, existence_report and the boundary integral, little Monte Carlo; "
            "the two near-wall boundary nodes fail, kept visible.",
            (
                Config(
                    "norm-identity",
                    {"hurst": README_HURST, "n_functions": 6},
                    smoke={"hurst": "0.1, 0.25"},
                ),
                Config(
                    "threshold-sweep",
                    {
                        "hurst": "0.35, 0.4, 0.45",
                        "alpha": "0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3",
                        "m": 1,
                    },
                    smoke={"hurst": "0.35", "alpha": "0, 0.3"},
                ),
                Config(
                    "spde-boundary",
                    {
                        "hurst": 0.75,
                        "p": 1.5,
                        "t0": 1,
                        "length": 1,
                        "n_paths": 20000,
                        "grid_steps": 64,
                    },
                    smoke={"n_paths": 2000},
                ),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# reading and checking the artifacts of one run


def read_artifacts(kind: str, out_dir: Path) -> dict:
    """Reference-relevant cells of one run, keyed by row key.

    Returns ``{"rows": {key: {column: cell}}, "monte_carlo": [cells],
    "summary": {name: value}}`` with cells as the CSV strings.
    """
    cols = COLUMNS[kind]
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    rows = {
        "|".join(r[k] for k in cols.key): {c: r[c] for c in cols.reference} for r in records
    }
    return {
        "rows": rows,
        "monte_carlo": [r[c] for r in records for c in cols.monte_carlo],
        "summary": {name: summary[name] for name in cols.summary_reference},
    }


def _same(got, want) -> bool:
    try:
        g, w = float(got), float(want)
    except (TypeError, ValueError):
        return got == want
    if g == w:
        return True
    if math.isnan(w):
        return math.isnan(g)
    return abs(g - w) <= REF_ATOL + REF_RTOL * abs(w)


def check_artifacts(kind: str, out_dir: Path, expected: dict, smoke: bool = False) -> list:
    """Problems found in one run's artifacts; an empty list means correct.

    Every row of the run must appear in ``expected`` (the recorded values
    of the full-size config) with matching deterministic cells, and every
    Monte Carlo cell must be finite.  A full-size run must give every
    recorded row; a smoke run gives a subset of them.
    """
    try:
        got = read_artifacts(kind, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{kind}: unreadable artifacts ({exc!r})"]
    problems = []
    if not got["rows"]:
        problems.append(f"{kind}: results.csv has no rows")
    missing = set(expected["rows"]) - set(got["rows"])
    if missing and not smoke:
        problems.append(f"{kind}: {len(missing)} recorded rows missing")
    for key, cells in got["rows"].items():
        want = expected["rows"].get(key)
        if want is None:
            problems.append(f"{kind}: row {key} has no recorded reference")
            continue
        for col, cell in cells.items():
            if not _same(cell, want[col]):
                problems.append(f"{kind}: row {key} {col} = {cell}, recorded {want[col]}")
    for name, value in got["summary"].items():
        if not _same(value, expected["summary"][name]):
            problems.append(f"{kind}: summary {name} = {value}, recorded {expected['summary'][name]}")
    bad = [c for c in got["monte_carlo"] if not math.isfinite(float(c))]
    if bad:
        problems.append(f"{kind}: {len(bad)} non-finite Monte Carlo cells")
    return problems
