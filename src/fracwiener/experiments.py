"""Declarative experiment registry behind the command line runner.

A config is a flat ``key = value`` text file: blank lines and ``#``
comment lines are ignored, there is no nesting and no inline comment
syntax.  Every config carries ``config_version = 1``, names its ``kind``
and a single integer ``seed``; the kind's schema supplies coercion,
validation and defaults for the remaining keys, and unknown keys are
rejected outright.  All randomness of a run flows from that one seed
(auxiliary draws use spawn keys off it), so identical configs reproduce
identical numbers at any thread count.

Runners hand back plain rows plus a JSON-ready summary and a list of
per-assertion verdicts; file writing stays with the caller, which keeps
the registry importable and testable without touching the filesystem.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .chaos import DiscreteIsonormal, double_wiener_integral, moment_ratio
from .grids import StepFunction, TimeGrid
from .integrals import _second_moment_z, isometry_report
from .processes import Family, FracParams, simulate_driver
from .sobolev import integrand_norm, norm_equivalence_constant, sobolev_norm_fourier
from .spde import (
    NeumannKernelConfig,
    SpectralModel,
    boundary_solution_check,
    existence_report,
    mild_summary,
    mode_norm,
    neumann_boundary_integral,
    semigroup_smoothing_exponent,
)

__all__ = [
    "CONFIG_VERSION",
    "SUMMARY_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "Verdict",
    "Experiment",
    "EXPERIMENTS",
    "parse_flat_config",
    "validate_config",
    "load_config",
    "run_experiment",
    "list_experiments_text",
    "column_docs_text",
]

CONFIG_VERSION = 1
SUMMARY_VERSION = 1

GAUSSIAN_RATIO = 3.0**0.25  # L4/L2 of a centered Gaussian
CHAOS2_RATIO = 60.0**0.25 / 2.0**0.5  # same ratio for xi^2 - 1

# the verdict rules: fixed, so a pass means the same thing in every config
_RATIO_RTOL = 0.01  # norm-identity: ratio against the closed-form constant
_Z_MAX = 3.0  # every Monte Carlo z-test; a sound test fails 0.27% of its rows
_PASS_FRACTION = 0.95  # isometry: share of cells within |z| <= _Z_MAX
# moments: per-path SD of the L4/L2 ratio's relative error, by the delta
# method on the limit law; a ratio passes within _Z_MAX / sqrt(n_paths) of it
_GAUSS_SD = math.sqrt(1.0 / 6.0)  # a centered Gaussian
_CHAOS2_SD = math.sqrt(5299.0 / 450.0)  # xi^2 - 1
_COMBO_BOUND = 3.0  # moments: L4/L2 bound of a first-plus-second-chaos mix
_SMOOTHING_TOL = 0.05  # spde-distributed: smoothing-exponent slope
_STABILITY_RTOL = 0.01  # spde-boundary: move of the last refinement
_MARGIN = 0.005  # threshold-sweep: indeterminate band around the threshold

_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ConfigError(Exception):
    """Invalid experiment configuration; one entry per problem found."""

    def __init__(self, problems: Sequence[str]):
        self.problems = [str(p) for p in problems]
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config: kind, seed and fully defaulted parameters."""

    kind: str
    seed: int
    params: Mapping[str, object]
    text_hash: str = ""
    out_dir: Optional[str] = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of one in-config assertion."""

    case: str
    passed: bool
    detail: str

    def to_record(self) -> dict:
        return {"case": self.case, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ExperimentResult:
    rows: list
    summary: dict
    verdicts: list
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# ---------------------------------------------------------------------------
# flat key = value parsing


def parse_flat_config(text: str) -> dict:
    """Parse the flat format into a raw string-to-string mapping."""
    out: dict = {}
    problems = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            problems.append(f"line {ln}: expected 'key = value', got {line!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        if not _KEY_RE.fullmatch(key):
            problems.append(f"line {ln}: bad key {key!r}")
            continue
        if key in out:
            problems.append(f"line {ln}: duplicate key {key!r}")
            continue
        out[key] = val.strip()
    if problems:
        raise ConfigError(problems)
    return out


# coercers: raw string -> typed value, ValueError on nonsense


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _bool(raw: str):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError(f"expected true or false, got {raw!r}")


def _floats(raw: str) -> tuple:
    # an entirely empty value is the empty grid; an empty element is not a number
    return tuple(_float(t.strip()) for t in raw.split(",")) if raw.strip() else ()


def _choice(*options: str):
    def coerce(raw: str) -> str:
        if raw in options:
            return raw
        raise ValueError(f"expected one of {', '.join(options)}; got {raw!r}")

    return coerce


# checks: typed value -> problem string or None


def _ge(bound):
    return lambda v: None if v >= bound else f"must be >= {bound}"


def _positive(v):
    return None if v > 0 else "must be positive"


def _open_unit(v):
    return None if 0.0 < v < 1.0 else "must lie in (0, 1)"


def _nonempty_unit_grid(vs):
    if not vs:
        return "parameter grid is empty"
    if any(not 0.0 < v < 1.0 for v in vs):
        return "every value must lie in (0, 1)"
    return None


def _nonempty_grid(vs):
    return None if vs else "parameter grid is empty"


@dataclass(frozen=True)
class _Key:
    name: str
    coerce: Callable
    check: Optional[Callable] = None
    default: object = None


# every kind requires a seed; it is read by the rule of the kinds' own keys
_SEED = _Key("seed", _int, _ge(0))


# ---------------------------------------------------------------------------
# validation


def validate_config(raw: Mapping[str, str], text_hash: str = "") -> ExperimentConfig:
    """Check a raw mapping against its kind's schema; all problems at once."""
    problems = []
    kind = raw.get("kind")
    if kind is None:
        problems.append("missing required key 'kind'")
    elif kind not in EXPERIMENTS:
        problems.append(f"unknown experiment kind {kind!r}; see list-experiments")
    ver = raw.get("config_version")
    if ver is None:
        problems.append("missing required key 'config_version'")
    else:
        try:
            if int(ver) != CONFIG_VERSION:
                problems.append(
                    f"unsupported config_version {ver} (this build reads version {CONFIG_VERSION})"
                )
        except ValueError:
            problems.append(f"key 'config_version': expected an integer, got {ver!r}")
    if kind not in EXPERIMENTS:
        raise ConfigError(problems)
    exp = EXPERIMENTS[kind]

    params: dict = {}
    seen = {"kind", "config_version", "seed", "out_dir"}

    def take(key: _Key, required: bool):
        if key.name not in raw:
            if required:
                problems.append(f"missing required key '{key.name}'")
            else:
                params[key.name] = key.default
            return
        try:
            value = key.coerce(raw[key.name])
        except ValueError as exc:
            problems.append(f"key '{key.name}': {exc}")
            return
        msg = key.check(value) if key.check else None
        if msg:
            problems.append(f"key '{key.name}': {msg}")
        else:
            params[key.name] = value

    take(_SEED, required=True)
    seed = params.pop("seed", 0)
    for key in exp.required:
        take(key, required=True)
        seen.add(key.name)
    for key in exp.optional:
        take(key, required=False)
        seen.add(key.name)

    for name in sorted(set(raw) - seen):
        problems.append(f"unknown key {name!r} for kind {kind!r}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(kind, seed, params, text_hash, raw.get("out_dir"))


def load_config(path) -> ExperimentConfig:
    """Read, parse and validate a config file."""
    import hashlib

    with open(path, "rb") as fh:
        data = fh.read()
    raw = parse_flat_config(data.decode("utf-8"))
    return validate_config(raw, text_hash=hashlib.sha256(data).hexdigest())


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run a validated config; a parameter the model rejects is a ConfigError.

    So is a parameter that overflows the floating-point range on its way
    through the model, and a size whose arrays do not fit in memory.  The
    runner's summary is stamped with the summary version, kind, seed and
    count of failed verdicts, and a Monte Carlo kind run on fewer than 1000
    paths gets a warning ahead of the runner's own.
    Path blocks run on the ``rng.worker_threads`` pool of the caller.
    """
    try:
        res = EXPERIMENTS[cfg.kind].runner(cfg)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    except OverflowError as exc:
        raise ConfigError([f"a parameter overflowed the floating-point range: {exc}"]) from None
    except MemoryError as exc:
        # numpy's message names the allocation: its size, shape and dtype
        raise ConfigError([f"an array did not fit in memory: {exc or 'no size given'}"]) from None
    n_failed = sum(not v.passed for v in res.verdicts)
    header = {"summary_version": SUMMARY_VERSION, "kind": cfg.kind, "seed": cfg.seed, "n_failed": n_failed}
    n_paths = cfg.params.get("n_paths")
    few = [] if n_paths is None or n_paths >= 1000 else [
        f"n_paths = {n_paths} is small for stable Monte Carlo statistics"
    ]
    return replace(res, summary={**header, **res.summary}, warnings=few + res.warnings)


# ---------------------------------------------------------------------------
# shared helpers


def _aux_rng(seed: int, lane: int) -> np.random.Generator:
    # auxiliary draws (integrand shapes, combination coefficients) live on
    # spawn lanes so they never collide with the path substreams
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(lane,)))


def _aligned_step(rng: np.random.Generator, grid: TimeGrid, pieces: int) -> StepFunction:
    idx = np.sort(rng.choice(grid.n_steps + 1, size=pieces + 1, replace=False))
    return StepFunction(grid.nodes[idx], rng.normal(size=pieces))


def _frac_params(family: str, h: float, p: Mapping) -> FracParams:
    fam = Family(family)
    if fam is Family.FBM:
        return FracParams.fbm(h)
    if fam is Family.ROSENBLATT:
        return FracParams.rosenblatt(h)
    if p.get("alpha") is None or p.get("beta") is None:
        raise ValueError("the generalized family needs keys alpha and beta")
    pr = FracParams.generalized(p["alpha"], p["beta"], 2)
    if abs(pr.h - h) > 1e-12:
        raise ValueError(f"hurst {h:g} inconsistent with alpha + beta + 2 = {pr.h:g}")
    return pr


# ---------------------------------------------------------------------------
# norm-identity


def _run_norm_identity(cfg: ExperimentConfig) -> ExperimentResult:
    p = cfg.params
    if p["pieces"] >= p["grid_steps"]:
        raise ConfigError(["pieces must be smaller than grid_steps"])
    grid = TimeGrid(0.0, p["t_end"] / p["grid_steps"], p["grid_steps"])
    rng = _aux_rng(cfg.seed, 0)
    rows, verdicts = [], []
    targets = {}
    worst = 0.0
    for h in p["hurst"]:
        target = norm_equivalence_constant(h)
        targets[f"{h:g}"] = target
        for fid in range(p["n_functions"]):
            f = _aligned_step(rng, grid, p["pieces"])
            dh = integrand_norm(f, h)
            four = sobolev_norm_fourier(f.to_grid(grid), 0.5 - h)
            case = f"H={h:g} f={fid}"
            if four == 0.0:
                rows.append((h, fid, dh, four, math.nan, False))
                verdicts.append(Verdict(case, False, "degenerate draw: zero Sobolev norm"))
                continue
            ratio = dh / four
            rel = abs(ratio - target) / target
            worst = max(worst, rel)
            ok = rel <= _RATIO_RTOL
            rows.append((h, fid, dh, four, ratio, ok))
            verdicts.append(
                Verdict(case, ok, f"ratio {ratio:.8g} vs constant {target:.8g} (rel dev {rel:.2e})")
            )
    summary = {
        "target_constant": targets,
        "max_rel_deviation": worst,
        "ratio_rtol": _RATIO_RTOL,
        "n_cases": len(rows),
    }
    return ExperimentResult(rows=rows, summary=summary, verdicts=verdicts)


# ---------------------------------------------------------------------------
# isometry


def _run_isometry(cfg: ExperimentConfig) -> ExperimentResult:
    p = cfg.params
    if p["pieces"] >= p["grid_steps"]:
        raise ConfigError(["pieces must be smaller than grid_steps"])
    if p["family"] != "generalized" and (p["alpha"] is not None or p["beta"] is not None):
        raise ConfigError([f"alpha and beta apply to the generalized family only, "
                           f"not {p['family']}"])
    grid = TimeGrid(0.0, p["t_end"] / p["grid_steps"], p["grid_steps"])
    rng = _aux_rng(cfg.seed, 1)
    rows = []
    zs = []
    for i, h in enumerate(p["hurst"]):
        params = _frac_params(p["family"], h, p)
        ens = simulate_driver(params, grid, p["n_paths"], cfg.seed, i, p["n_noise_cells"])
        for fid in range(p["n_functions"]):
            f = _aligned_step(rng, grid, p["pieces"])
            rep = isometry_report(f, ens)
            ok = abs(rep.z_score) <= _Z_MAX
            zs.append(rep.z_score)
            rows.append((p["family"], h, fid, rep.dh_norm_sq, rep.mc_var, rep.z_score, ok))
    frac = sum(abs(z) <= _Z_MAX for z in zs) / len(zs)
    passed = frac >= _PASS_FRACTION
    verdicts = [
        Verdict(
            "z-band fraction",
            passed,
            f"{frac:.4f} of {len(zs)} cells within |z| <= {_Z_MAX:g} "
            f"(need >= {_PASS_FRACTION:g})",
        )
    ]
    summary = {
        "family": p["family"],
        "z_scores": zs,
        "z_max": _Z_MAX,
        "fraction_within": frac,
        "pass_fraction": _PASS_FRACTION,
        "n_cases": len(rows),
        "passed": passed,
    }
    return ExperimentResult(rows=rows, summary=summary, verdicts=verdicts)


# ---------------------------------------------------------------------------
# moments


def _run_moments(cfg: ExperimentConfig) -> ExperimentResult:
    p = cfg.params
    n_cells = p["n_cells"]
    # unit weight on the unit window; on another, the cells' sqrt(dt) cancels its scale
    iso = DiscreteIsonormal(TimeGrid(0.0, 1.0 / n_cells, n_cells), seed=cfg.seed)
    e = np.ones(n_cells)
    first = iso.first_order(e, p["n_paths"])
    second = double_wiener_integral(np.outer(e, e), iso, p["n_paths"])

    g_ratio = moment_ratio(first, 4, 2)
    c_ratio = moment_ratio(second, 4, 2)
    band = _Z_MAX / math.sqrt(p["n_paths"])
    g_ok = abs(g_ratio / GAUSSIAN_RATIO - 1.0) <= band * _GAUSS_SD
    c_ok = abs(c_ratio / CHAOS2_RATIO - 1.0) <= band * _CHAOS2_SD
    rows = [("gaussian", 0, g_ratio, GAUSSIAN_RATIO, g_ok), ("chaos2", 0, c_ratio, CHAOS2_RATIO, c_ok)]

    rng = _aux_rng(cfg.seed, 2)
    combo_max = 0.0
    combo_all_ok = True
    for j in range(p["n_draws"]):
        a = rng.normal(size=3)
        ratio = moment_ratio(a[0] + a[1] * first + a[2] * second, 4, 2)
        ok = ratio <= _COMBO_BOUND
        combo_max = max(combo_max, ratio)
        combo_all_ok = combo_all_ok and ok
        rows.append(("combo", j, ratio, _COMBO_BOUND, ok))

    verdicts = [
        Verdict("gaussian moment ratio", g_ok, f"{g_ratio:.6g} vs {GAUSSIAN_RATIO:.6g}"),
        Verdict("second-chaos moment ratio", c_ok, f"{c_ratio:.6g} vs {CHAOS2_RATIO:.6g}"),
        Verdict(
            "mixed-combination bound",
            combo_all_ok,
            f"max ratio {combo_max:.6g} over {p['n_draws']} draws (bound {_COMBO_BOUND:g})",
        ),
    ]
    summary = {
        "gaussian_ratio": g_ratio,
        "chaos2_ratio": c_ratio,
        "combo_max_ratio": combo_max,
        "combo_bound": _COMBO_BOUND,
        "n_draws": p["n_draws"],
        "n_paths": p["n_paths"],
    }
    return ExperimentResult(rows=rows, summary=summary, verdicts=verdicts)


# ---------------------------------------------------------------------------
# spde-distributed


def _run_spde_distributed(cfg: ExperimentConfig) -> ExperimentResult:
    p = cfg.params
    if p["holder_floor"] is not None and not p["fit_holder"]:
        raise ConfigError(["holder_floor needs fit_holder = true"])
    warnings = []
    if p["fit_smoothing"] and p["truncation"] < 128:
        warnings.append(
            f"truncation = {p['truncation']} is coarse for the smoothing-exponent fit; "
            "128+ modes give a stable slope"
        )
    model = SpectralModel(p["length"], p["m"], p["truncation"], p=p["p"])
    params = _frac_params(p["family"], p["hurst"], p)
    grid = TimeGrid(0.0, p["t_end"] / p["grid_steps"], p["grid_steps"])
    terminal, holder = mild_summary(
        model, params, grid, p["n_paths"], p["alpha"], seed=cfg.seed,
        n_noise_cells=p["n_noise_cells"], fit_holder=p["fit_holder"],
    )

    n_check = min(p["check_modes"], model.truncation)
    rows, verdicts = [], []
    for j in range(n_check):
        target = mode_norm(model, j + 1, p["t_end"], p["hurst"], p["alpha"]) ** 2
        mc, _, z = map(float, _second_moment_z(terminal[:, j], target))
        ok = abs(z) <= _Z_MAX
        rows.append((j + 1, float(model.eigenvalues[j]), mc, target, z, ok))
        verdicts.append(
            Verdict(f"mode {j + 1} second moment", ok, f"z = {z:.3f} (|z| <= {_Z_MAX:g})")
        )

    fitted = {}
    if p["fit_holder"]:
        fitted["holder"] = holder
        if p["holder_floor"] is not None:
            ok = holder > p["holder_floor"]
            verdicts.append(
                Verdict(
                    "temporal regularity exponent",
                    ok,
                    f"fitted slope {holder:.4f} vs floor {p['holder_floor']:g}",
                )
            )
    if p["fit_smoothing"]:
        slope = semigroup_smoothing_exponent(model, p["alpha"])
        expected = -1.0 / (4.0 * p["m"]) - p["alpha"]
        fitted["smoothing"] = slope
        ok = abs(slope - expected) <= _SMOOTHING_TOL
        verdicts.append(
            Verdict(
                "semigroup smoothing exponent",
                ok,
                f"fitted slope {slope:.4f} vs {expected:.4f} (tol {_SMOOTHING_TOL:g})",
            )
        )

    summary = {
        "family": p["family"],
        "hurst": p["hurst"],
        "alpha": p["alpha"],
        "existence_threshold": model.existence_threshold(p["hurst"]),
        "fitted_exponents": fitted,
        "n_modes_checked": n_check,
    }
    return ExperimentResult(rows=rows, summary=summary, verdicts=verdicts, warnings=warnings)


# ---------------------------------------------------------------------------
# spde-boundary


def _run_spde_boundary(cfg: ExperimentConfig) -> ExperimentResult:
    p = cfg.params
    kcfg = NeumannKernelConfig(p["length"], p["t0"], p["hurst"], p["p"])

    rec = neumann_boundary_integral(kcfg)
    trace = [float(v) for v in rec.refinement_trace]
    if len(trace) >= 2 and trace[-1] != 0.0:
        drift = abs(trace[-1] - trace[-2]) / abs(trace[-1])
    else:
        drift = math.inf
    int_ok = (not rec.diverged) and drift <= _STABILITY_RTOL
    detail = (
        f"value {rec.value:.6g}, last refinement moved {drift:.2e} (allow {_STABILITY_RTOL:g})"
    )
    verdicts = [Verdict("boundary-noise integral", int_ok, detail)]

    check = boundary_solution_check(
        kcfg, p["n_paths"], grid_steps=p["grid_steps"], x_nodes=p["x_nodes"],
        seed=cfg.seed,
    )

    rows = []
    profiles = (check.x_nodes, check.variance_profile, check.expected_profile, check.z_profile)
    for x, mc, exp_v, z in np.column_stack(profiles).tolist():
        ok = abs(z) <= _Z_MAX
        rows.append((x, mc, exp_v, z, ok))
        verdicts.append(Verdict(f"wall variance at x={x:g}", ok, f"z = {z:.3f}"))

    summary = {
        "integral_value": rec.value,
        "integral_diverged": rec.diverged,
        "refinement_trace": trace,
        "gamma_norm": check.gamma_norm,
        "n_paths": p["n_paths"],
    }
    return ExperimentResult(rows=rows, summary=summary, verdicts=verdicts)


# ---------------------------------------------------------------------------
# threshold-sweep


def _run_threshold_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    p = cfg.params
    model = SpectralModel(p["length"], p["m"], p["truncation"], p=p["p"])
    rows, verdicts = [], []
    flips = {}
    for h in p["hurst"]:
        threshold = model.existence_threshold(h)
        flags = []
        all_rows_ok = True
        for a in p["alpha"]:
            rep = existence_report(model, h, a, p["t0"], doublings=p["doublings"])
            diverged = not rep.finite
            if abs(a - threshold) <= _MARGIN:
                ok = True  # indeterminate zone around the threshold
            else:
                ok = diverged == (a > threshold)
            all_rows_ok = all_rows_ok and ok
            flags.append((a, diverged))
            rows.append((h, a, threshold, rep.gamma_norm_lp_value, diverged, ok))
        flags.sort(key=lambda t: t[0])
        ordered = [d for _, d in flags]
        monotone = all(not (x and not y) for x, y in zip(ordered, ordered[1:]))
        first_div = next((a for a, d in flags if d), None)
        flips[f"{h:g}"] = first_div
        ok = all_rows_ok and monotone
        msg = "verdicts monotone in alpha" if monotone else "verdicts not monotone in alpha"
        if first_div is not None:
            msg += f"; first diverged at alpha = {first_div:g} (threshold {threshold:g})"
        verdicts.append(Verdict(f"H={h:g} sweep", ok, msg))
    summary = {
        "first_diverged_alpha": flips,
        "margin": _MARGIN,
        "n_cases": len(rows),
    }
    return ExperimentResult(rows=rows, summary=summary, verdicts=verdicts)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Experiment:
    name: str
    blurb: str
    required: tuple
    optional: tuple
    columns: tuple  # one (name, doc) pair per results.csv column, in order
    runner: Callable


EXPERIMENTS: dict = {
    exp.name: exp
    for exp in (
        Experiment(
            name="norm-identity",
            blurb="integrand norm over Sobolev norm against the closed-form constant",
            required=(
                _Key("hurst", _floats, _nonempty_unit_grid),
                _Key("n_functions", _int, _ge(1)),
            ),
            optional=(
                _Key("pieces", _int, _ge(1), 6),
                _Key("grid_steps", _int, _ge(8), 256),
                _Key("t_end", _float, _positive, 1.0),
            ),
            columns=(
                ("H", "Hurst parameter of the row"),
                ("f-id", "index of the random step integrand in the draw sequence"),
                ("dh_norm", "integrand norm of the draw (tail-transform route)"),
                ("fourier_norm", "homogeneous Sobolev norm of order 1/2 - H (FFT route)"),
                ("ratio", "dh_norm / fourier_norm"),
                ("pass", f"true when the ratio is within {_RATIO_RTOL:.0%} of the constant"),
            ),
            runner=_run_norm_identity,
        ),
        Experiment(
            name="isometry",
            blurb="Monte Carlo second moment of Wiener integrals against the integrand norm",
            required=(
                _Key("family", _choice("fbm", "rosenblatt", "generalized")),
                _Key("hurst", _floats, _nonempty_unit_grid),
                _Key("n_paths", _int, _ge(2)),
                _Key("n_functions", _int, _ge(1)),
            ),
            optional=(
                _Key("alpha", _float),
                _Key("beta", _float),
                _Key("grid_steps", _int, _ge(8), 256),
                _Key("t_end", _float, _positive, 1.0),
                _Key("pieces", _int, _ge(1), 4),
                _Key("n_noise_cells", _int, _ge(16), 1024),
            ),
            columns=(
                ("family", "driver family of the row (fbm, rosenblatt, generalized)"),
                ("H", "Hurst parameter of the driver"),
                ("f-id", "index of the random step integrand"),
                ("dh_norm_sq", "exact squared integrand norm (the isometry target)"),
                ("mc_var", "Monte Carlo second moment of the integral"),
                ("z", "(mc_var - dh_norm_sq) / SE, SE the empirical standard\n"
                      "error of the per-path squares"),
                ("pass", f"true when |z| <= {_Z_MAX:g}"),
            ),
            runner=_run_isometry,
        ),
        Experiment(
            name="moments",
            blurb="hypercontractive moment ratios of first and second chaos samples",
            required=(_Key("n_paths", _int, _ge(2)),),
            optional=(
                _Key("n_draws", _int, _ge(1), 100),
                _Key("n_cells", _int, _ge(8), 128),
            ),
            columns=(
                ("check", "gaussian | chaos2 | combo"),
                ("draw", "coefficient-draw index (0 for the two fixed checks)"),
                ("ratio", "empirical L4/L2 moment ratio"),
                ("reference", "exact target (gaussian, chaos2) or the order-2 bound (combo)"),
                ("pass", f"true when |ratio / reference - 1| <= {_Z_MAX:g} c / sqrt(n_paths), c the\n"
                         f"per-path SD: {_GAUSS_SD:.4f} (gaussian), {_CHAOS2_SD:.4f} (chaos2); or\n"
                         "when the ratio is at most the reference (combo)"),
            ),
            runner=_run_moments,
        ),
        Experiment(
            name="spde-distributed",
            blurb="mild solution mode variances, optional regularity exponent fits",
            required=(
                _Key("family", _choice("fbm", "rosenblatt")),
                _Key("hurst", _float, _open_unit),
                _Key("m", _int, _ge(1)),
                _Key("length", _float, _positive),
                _Key("truncation", _int, _ge(1)),
                _Key("grid_steps", _int, _ge(2)),
                _Key("t_end", _float, _positive),
                _Key("n_paths", _int, _ge(2)),
                _Key("alpha", _float, _ge(0.0)),
            ),
            optional=(
                _Key("p", _float, _ge(1.0), 2.0),
                _Key("check_modes", _int, _ge(1), 4),
                _Key("fit_holder", _bool, None, False),
                _Key("holder_floor", _float),
                _Key("fit_smoothing", _bool, None, False),
                _Key("n_noise_cells", _int, _ge(16), 512),
            ),
            columns=(
                ("mode", "eigenmode index (1-based)"),
                ("eigenvalue", "spectral eigenvalue of the mode"),
                ("mc_second_moment", "Monte Carlo E y_k(t_end)^2"),
                ("expected_second_moment", "exact mode norm squared"),
                ("z", "(mc - expected) / SE"),
                ("pass", f"true when |z| <= {_Z_MAX:g}"),
            ),
            runner=_run_spde_distributed,
        ),
        Experiment(
            name="spde-boundary",
            blurb="Neumann boundary-noise integral and wall variance profile",
            required=(
                _Key("hurst", _float, lambda v: None if 0.5 <= v < 1.0 else "must lie in [1/2, 1)"),
                _Key("p", _float, lambda v: None if 1.0 < v <= 2.0 else "must lie in (1, 2]"),
                _Key("t0", _float, _positive),
                _Key("length", _float, _positive),
                _Key("n_paths", _int, _ge(2)),
                _Key("grid_steps", _int, _ge(2)),
            ),
            optional=(
                _Key("x_nodes", _floats, _nonempty_grid),
            ),
            columns=(
                ("x", "spatial node of the wall-variance check"),
                ("mc_variance", "Monte Carlo variance of the boundary-driven solution"),
                ("expected_variance", "exact variance via the integrand norm of the kernel"),
                ("z", "(mc - expected) / SE, SE the empirical standard error\n"
                      "of the per-path squares"),
                ("pass", f"true when |z| <= {_Z_MAX:g}"),
            ),
            runner=_run_spde_boundary,
        ),
        Experiment(
            name="threshold-sweep",
            blurb="existence verdicts across a fractional-power grid",
            required=(
                _Key("hurst", _floats, _nonempty_unit_grid),
                _Key("alpha", _floats, _nonempty_grid),
                _Key("m", _int, _ge(1)),
            ),
            optional=(
                _Key("length", _float, _positive, 1.0),
                _Key("truncation", _int, _ge(8), 64),
                _Key("t0", _float, _positive, 1.0),
                _Key("p", _float, _ge(1.0), 2.0),
                _Key("doublings", _int, _ge(1), 3),
            ),
            columns=(
                ("H", "Hurst parameter of the driving noise"),
                ("alpha", "fractional power applied to the operator weights"),
                ("threshold", "H - 1/(4m), where the mode series stops converging"),
                ("gamma_norm", "truncated value of the solution-norm series"),
                ("diverged", "detector verdict for the series"),
                ("pass", "true when the verdict matches the side of the threshold\n"
                         f"(rows within {_MARGIN:g} of the threshold pass unconditionally)"),
            ),
            runner=_run_threshold_sweep,
        ),
    )
}


# ---------------------------------------------------------------------------
# documentation text (kept stable; README quotes it verbatim)


def list_experiments_text() -> str:
    """Three lines per kind: name + blurb, required keys, optional keys."""
    lines = []
    for exp in EXPERIMENTS.values():
        req = ["config_version", "kind", "seed"] + [k.name for k in exp.required]
        opt = [k.name for k in exp.optional] + ["out_dir"]
        lines.append(f"{exp.name:<17} {exp.blurb}")
        lines.append(f"  required: {', '.join(req)}")
        lines.append(f"  optional: {', '.join(opt)}")
    return "\n".join(lines)


def column_docs_text() -> str:
    """Per-kind documentation of every results.csv column, names padded to the
    longest name + 2 and further doc lines aligned under the first."""
    blocks = []
    for exp in EXPERIMENTS.values():
        width = 2 + max(len(name) for name, _ in exp.columns)
        lines = [f"{exp.name} results.csv:"]
        for name, doc in exp.columns:
            first, *more = doc.splitlines()
            lines.append(f"  {name:<{width}}{first}")
            lines += [f"  {'':<{width}}{line}" for line in more]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
