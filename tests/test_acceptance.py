"""End-to-end acceptance gate.

One test per headline guarantee, each printing a single pass/fail line with
the measured quantity next to its tolerance.  Tolerances and run sizes are
fixed; the seed is 2024 everywhere, so every number below is reproducible.
Monte Carlo configurations (path counts, grids, noise discretizations) were
chosen by deterministic bias measurement, not by trying seeds.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import closing

import numpy as np

from fracwiener import spde
from fracwiener.chaos import DiscreteIsonormal, double_wiener_integral, moment_ratio
from fracwiener.cli import main as cli_main
from fracwiener.experiments import parse_flat_config, run_experiment, validate_config
from fracwiener.grids import StepFunction, TimeGrid
from fracwiener.integrals import isometry_report
from fracwiener.processes import (
    FracParams,
    covariance_rh,
    simulate_fbm,
    simulate_hermite_k2,
)
from fracwiener.rng import worker_threads
from fracwiener.sobolev import (
    affine_norm_pair,
    integrand_norm,
    mesh_average_step,
    norm_equivalence_constant,
    restricted_norm,
    sobolev_norm_fourier,
    sobolev_norm_step,
)
from fracwiener.spde import (
    NeumannKernelConfig,
    SpectralModel,
    existence_report,
    mild_summary,
    neumann_boundary_integral,
    semigroup_smoothing_exponent,
)

ACC_SEED = 2024
THREADS = 4
HURSTS = [0.1, 0.25, 0.4, 0.6, 0.75, 0.9]


def _lane(lane: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=ACC_SEED, spawn_key=(lane,)))


def _aligned_step(rng, grid: TimeGrid, pieces: int) -> StepFunction:
    idx = np.sort(rng.choice(grid.n_steps + 1, size=pieces + 1, replace=False))
    return StepFunction(grid.nodes[idx], rng.normal(size=pieces))


def _verdict(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid} {'PASS' if ok else 'FAIL'}: {detail}")


def test_c01_norm_ratio_matches_equivalence_constant():
    t0 = time.perf_counter()
    rng = _lane(1)
    grid = TimeGrid(0.0, 1.0 / 256, 256)
    worst = 0.0
    for h in HURSTS:
        const = norm_equivalence_constant(h)
        for _ in range(20):
            f = _aligned_step(rng, grid, 6)
            ratio = integrand_norm(f, h) / sobolev_norm_fourier(f.to_grid(grid), 0.5 - h)
            worst = max(worst, abs(ratio - const) / const)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 60.0
    _verdict("c01", ok, f"norm ratio vs constant, 120 cases, worst rel {worst:.2e} "
                        f"(tol 1e-2), {elapsed:.1f}s (limit 60s)")
    assert worst <= 0.01
    assert elapsed < 60.0


def test_c02_indicator_norm_closed_form():
    worst = 0.0
    for h in HURSTS:
        for t in (0.5, 1.0, 2.0):
            got = integrand_norm(StepFunction.indicator(0.0, t), h)
            want = t**h
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-4
    _verdict("c02", ok, f"indicator norm vs t^H, 18 cases, worst rel {worst:.2e} (tol 1e-4)")
    assert worst <= 1e-4


def test_c03_isometry_across_drivers():
    t0 = time.perf_counter()
    rng = _lane(3)
    n_paths = 100_000
    zs = []
    fbm_grid = TimeGrid(0.0, 1.0 / 256, 256)
    for i, h in enumerate(HURSTS):
        with worker_threads(THREADS):
            ens = simulate_fbm(FracParams.fbm(h), fbm_grid, n_paths, ACC_SEED, stream=i)
        for _ in range(8):
            zs.append(isometry_report(_aligned_step(rng, fbm_grid, 5), ens).z_score)
        del ens
    # short-window covariance bias of the second-chaos scheme is H-dependent:
    # H=0.75 wants near-diagonal resolution, H=0.9 wants a deep noise window
    ros_grid = TimeGrid(0.0, 0.25, 4)
    ros_setups = [
        (0.75, 4096, 10.0, 0.6),
        (0.9, 2048, 20.0, 0.35),
    ]
    for j, (h, n_cells, lead, warp) in enumerate(ros_setups):
        iso = DiscreteIsonormal.for_window(1.0, n_cells, ACC_SEED, lead_factor=lead, stream=10 + j)
        with worker_threads(THREADS):
            ens = simulate_hermite_k2(FracParams.rosenblatt(h), ros_grid, iso, n_paths,
                                      warp_scale=warp)
        for _ in range(6):
            zs.append(isometry_report(_aligned_step(rng, ros_grid, 3), ens).z_score)
        del ens
    elapsed = time.perf_counter() - t0
    zs = np.asarray(zs)
    frac = float(np.mean(np.abs(zs) <= 3.0))
    ok = len(zs) == 60 and frac >= 0.95 and elapsed < 600.0
    _verdict("c03", ok, f"isometry z-scores, {int(round(frac * 60))}/60 cells |z|<=3 "
                        f"(need >=57), max |z| {np.abs(zs).max():.3f}, {elapsed:.0f}s (limit 600s)")
    assert len(zs) == 60
    assert frac >= 0.95
    assert elapsed < 600.0


def test_c04_moment_ratios():
    cfg = validate_config(parse_flat_config(
        "config_version = 1\n"
        "kind = moments\n"
        f"seed = {ACC_SEED}\n"
        "n_paths = 200000\n"
        "n_cells = 256\n"
        "n_draws = 100\n"
    ))
    with worker_threads(THREADS):
        res = run_experiment(cfg)
    g_rel = abs(res.summary["gaussian_ratio"] - 3**0.25) / 3**0.25
    c_ref = 60**0.25 / 2**0.5
    c_rel = abs(res.summary["chaos2_ratio"] - c_ref) / c_ref
    combo = res.summary["combo_max_ratio"]
    ok = res.passed and g_rel <= 0.01 and c_rel <= 0.02 and combo <= 3.0
    _verdict("c04", ok, f"L4/L2 ratios: gaussian rel {g_rel:.2e} (tol 1e-2), "
                        f"second-chaos rel {c_rel:.2e} (tol 2e-2), "
                        f"100-draw combo max {combo:.3f} (bound 3)")
    assert res.passed
    assert g_rel <= 0.01
    assert c_rel <= 0.02
    assert combo <= 3.0


def test_c05_second_chaos_covariance():
    n_paths = 100_000
    grid = TimeGrid(0.0, 0.25, 4)
    iso = DiscreteIsonormal.for_window(1.0, 1024, ACC_SEED, stream=20)
    with worker_threads(THREADS):
        ens = simulate_hermite_k2(FracParams.rosenblatt(0.75), grid, iso, n_paths)
    worst = 0.0
    paths = ens.paths
    for i, s in zip([1, 2, 4], [0.25, 0.5, 1.0]):
        for j, t in zip([1, 2, 4], [0.25, 0.5, 1.0]):
            prod = paths[:, i] * paths[:, j]
            exact = covariance_rh(s, t, 0.75)
            se = float(np.std(prod, ddof=1)) / math.sqrt(n_paths)
            worst = max(worst, abs(float(np.mean(prod)) - exact) / se)
    ok = worst <= 4.0
    _verdict("c05", ok, f"second-chaos covariance vs closed form, 3x3 grid, "
                        f"max dev {worst:.3f} SE (limit 4 SE)")
    assert worst <= 4.0


def test_c06_semigroup_smoothing_slopes():
    cases = ((1, 0.0, -0.25), (1, 0.5, -0.75), (2, 0.0, -0.125))
    devs = []
    for m, alpha, want in cases:
        model = SpectralModel(math.pi, m, 256)
        devs.append(abs(semigroup_smoothing_exponent(model, alpha) - want))
    worst = max(devs)
    ok = worst <= 0.05
    _verdict("c06", ok, f"smoothing slopes for (m,alpha) in {{(1,0),(1,1/2),(2,0)}}, "
                        f"worst dev {worst:.4f} (tol 0.05)")
    assert worst <= 0.05


def test_c07_existence_flips_at_threshold():
    model = SpectralModel(1.0, 1, 64)
    all_ok = True
    details = []
    for h in (0.35, 0.4, 0.45):
        thr = h - 0.25
        flags = [not existence_report(model, h, thr + da, 1.0).finite
                 for da in (-0.06, -0.04, -0.02, 0.02, 0.04, 0.06)]
        good = flags == [False, False, False, True, True, True]
        all_ok = all_ok and good
        details.append(f"H={h}:{'ok' if good else flags}")
    _verdict("c07", all_ok, "existence verdict flips at alpha = H - 1/4, monotone "
                            f"within +-0.06 ({', '.join(details)})")
    assert all_ok


def test_c08_holder_exponent_floors():
    t0 = time.perf_counter()
    results = []
    for m, h, floor in ((1, 0.4, 0.10), (2, 0.45, 0.275)):
        model = SpectralModel(math.pi, m, 64)
        grid = TimeGrid(0.0, 1.0 / 256, 256)
        with worker_threads(THREADS):
            _, slope = mild_summary(model, FracParams.fbm(h), grid, 10_000, 0.0, seed=ACC_SEED,
                                    n_noise_cells=512, fit_holder=True)
        results.append((m, h, floor, slope))
    elapsed = time.perf_counter() - t0
    ok = all(slope > floor for _, _, floor, slope in results) and elapsed < 900.0
    detail = ", ".join(f"m={m} H={h}: slope {slope:.3f} > {floor}" for m, h, floor, slope in results)
    _verdict("c08", ok, f"time-increment slopes above H - 1/(4m) - 0.05 ({detail}), "
                        f"{elapsed:.0f}s (limit 900s)")
    for _, _, floor, slope in results:
        assert slope > floor
    assert elapsed < 900.0


def _node_paths(model, params, grid, n_paths, seed):
    """``coeffs[path, mode, node]`` of the mild solve: the ``_mode_paths`` draws, stacked."""
    coeffs = np.zeros((n_paths, model.truncation, grid.n_steps + 1))
    modes = spde._mode_paths(model, params, grid, n_paths, 0.0, seed, 512, 1)
    with closing(modes):
        for k, nodes in modes:
            coeffs[:, k, 1:] = nodes.T
    return coeffs


def test_c09_mild_mode_variance_brownian_case():
    model = SpectralModel(math.pi, 1, 1)
    grid = TimeGrid(0.0, 1.0 / 512, 512)
    with worker_threads(THREADS):
        coeffs = _node_paths(model, FracParams.fbm(0.5), grid, 20_000, ACC_SEED)
    lam = model.eigenvalues[0]
    worst = 0.0
    for t in (0.25, 0.5, 0.75, 1.0):
        sq = coeffs[:, 0, round(t * 512)] ** 2
        target = (1.0 - math.exp(-2.0 * lam * t)) / (2.0 * lam)
        se = float(np.std(sq, ddof=1)) / math.sqrt(sq.size)
        worst = max(worst, abs(float(np.mean(sq)) - target) / se)
    ok = worst <= 3.0
    _verdict("c09", ok, f"first-mode variance vs (1-e^(-2*lambda*t))/(2*lambda) at H=1/2, "
                        f"max dev {worst:.3f} SE (limit 3 SE)")
    assert worst <= 3.0


def test_c10_boundary_integral_refinement():
    stable_ok = True
    details = []
    for h, p in ((0.6, 2.0), (0.75, 1.5), (0.9, 2.0)):
        rec = neumann_boundary_integral(NeumannKernelConfig(1.0, 1.0, h, p))
        tr = rec.refinement_trace
        drift = abs(tr[-1] - tr[-2]) / abs(tr[-1])
        good = (not rec.diverged) and drift <= 0.01
        stable_ok = stable_ok and good
        details.append(f"H={h},p={p}: drift {drift:.1e}")
    sur_hard = neumann_boundary_integral(NeumannKernelConfig(1.0, 1.0, 0.6, 2.0), surrogate_d=2)
    sur_easy = neumann_boundary_integral(NeumannKernelConfig(1.0, 1.0, 0.9, 2.0), surrogate_d=2)
    sur_ok = sur_hard.diverged and not sur_easy.diverged
    ok = stable_ok and sur_ok
    _verdict("c10", ok, f"boundary integral refinement-stable in d=1 ({'; '.join(details)}; "
                        f"tol 1e-2); d=2 surrogate diverged at (0.6,2)={sur_hard.diverged}, "
                        f"stable at (0.9,2)={not sur_easy.diverged}")
    assert stable_ok
    assert sur_ok


def test_c11_affine_mesh_and_restriction():
    rng = _lane(11)
    worst = 0.0
    for _ in range(20):
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 4.0))
        b = float(rng.uniform(-1.0, 1.0))
        s = float(rng.uniform(-0.45, 0.45))
        bp = np.sort(rng.uniform(-1.0, 1.0, size=6))
        f = StepFunction(bp, rng.normal(size=5))
        lhs, rhs = affine_norm_pair(f, a, b, s)
        worst = max(worst, abs(lhs - rhs) / rhs)
    affine_ok = worst <= 1e-3

    s = 0.3
    f = StepFunction(np.array([0.0, 0.21, 0.47, 0.8, 1.0]), np.array([1.0, -0.7, 0.4, 1.3]))
    base = sobolev_norm_step(f, s)
    ratios, errs = [], []
    for k in range(1, 8):
        g = mesh_average_step(f, 0.0, 2.0**-k)
        ratios.append(sobolev_norm_step(g, s) / base)
        diff_bp = np.union1d(f.breakpoints, g.breakpoints)
        mids = 0.5 * (diff_bp[:-1] + diff_bp[1:])
        errs.append(sobolev_norm_step(StepFunction(diff_bp, f(mids) - g(mids)), s))
    mesh_ok = max(ratios) <= 1.05 and all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])) \
        and errs[-1] < 0.5 * errs[0]

    rest = [restricted_norm(f, 0.5 - w, 0.5 + w, s) for w in (0.25, 0.125, 0.0625, 0.03125)]
    rest_ok = max(rest) <= base and all(b <= a + 1e-12 for a, b in zip(rest, rest[1:])) \
        and rest[-1] < 0.5 * rest[0]

    ok = affine_ok and mesh_ok and rest_ok
    _verdict("c11", ok, f"affine rescaling worst rel {worst:.2e} (tol 1e-3); mesh averages "
                        f"bounded (max ratio {max(ratios):.3f}) with error {errs[0]:.3f}->{errs[-1]:.3f} "
                        f"over 7 dyadic levels; restriction monotone {rest[0]:.3f}->{rest[-1]:.3f}")
    assert affine_ok
    assert mesh_ok
    assert rest_ok


def test_c12_byte_identical_reruns(tmp_path):
    cfg_text = (
        "config_version = 1\n"
        "kind = isometry\n"
        f"seed = {ACC_SEED}\n"
        "family = fbm\n"
        "hurst = 0.3, 0.7\n"
        "n_paths = 3000\n"
        "n_functions = 3\n"
        "grid_steps = 128\n"
    )
    cfg_file = tmp_path / "iso.cfg"
    cfg_file.write_text(cfg_text)
    payloads = []
    for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / tag
        code = cli_main(["run", str(cfg_file), "--out", str(out), "--threads", str(threads)])
        assert code == 0
        payloads.append((
            (out / "results.csv").read_bytes(),
            (out / "summary.json").read_bytes(),
        ))
    rerun_same = payloads[0] == payloads[1]
    threads_same = payloads[0] == payloads[2]
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    ok = rerun_same and threads_same
    _verdict("c12", ok, f"same-seed rerun byte-identical: {rerun_same}; "
                        f"threads 1 vs 4 byte-identical: {threads_same} "
                        f"(config {manifest['config_hash'][:12]})")
    assert rerun_same
    assert threads_same
