"""Runner coverage: flat-config parsing and validation, every experiment
kind end to end, exit codes, artifact formats, byte-level determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwiener import __version__, experiments, processes
from fracwiener.cli import build_parser, main
from fracwiener.experiments import (
    CONFIG_VERSION,
    EXPERIMENTS,
    ConfigError,
    _bool,
    _float,
    _floats,
    _int,
    column_docs_text,
    list_experiments_text,
    load_config,
    parse_flat_config,
    run_experiment,
    validate_config,
)
from fracwiener.sobolev import norm_equivalence_constant

README = Path(__file__).resolve().parents[1] / "README.md"

NORM_CFG = """\
# two orders, either side of 1/2
config_version = 1
kind = norm-identity
seed = 7
hurst = 0.25, 0.6
n_functions = 3
"""

ISO_CFG = """\
config_version = 1
kind = isometry
seed = 3
family = fbm
hurst = 0.3, 0.7
n_paths = 3000
n_functions = 3
grid_steps = 128
"""

ROS_CFG = """\
config_version = 1
kind = isometry
seed = 9
family = rosenblatt
hurst = 0.75
n_paths = 2000
n_functions = 2
grid_steps = 8
pieces = 3
"""

MOMENTS_CFG = """\
config_version = 1
kind = moments
seed = 5
n_paths = 20000
n_draws = 20
"""

SPDE_CFG = """\
config_version = 1
kind = spde-distributed
seed = 11
family = fbm
hurst = 0.5
m = 1
length = 3.141592653589793
truncation = 4
grid_steps = 512
t_end = 1.0
n_paths = 1500
alpha = 0.0
check_modes = 2
"""

# 64 steps bias the upper modes: modes 3 and 4 fail their z-test
COARSE_SPDE_CFG = """\
config_version = 1
kind = spde-distributed
seed = 3
family = fbm
hurst = 0.5
m = 1
length = 3.141592653589793
truncation = 8
grid_steps = 64
t_end = 1.0
n_paths = 2000
alpha = 0.0
check_modes = 4
"""

BOUNDARY_CFG = """\
config_version = 1
kind = spde-boundary
seed = 51
hurst = 0.75
p = 2.0
t0 = 1.0
length = 1.0
n_paths = 1000
grid_steps = 64
x_nodes = 0.5
"""

SWEEP_CFG = """\
config_version = 1
kind = threshold-sweep
seed = 0
hurst = 0.4
alpha = 0.0, 0.1, 0.2, 0.3
m = 1
"""

# the spectral shift, the detector's cell floor and the boundary kernel's
# piece count; then the verdict tolerances, one fixed rule per verdict
REMOVED_KEYS = (
    ("lambda_shift", SPDE_CFG + "lambda_shift = 1\n"),
    ("n_x", SWEEP_CFG + "n_x = 64\n"),
    ("kernel_pieces", BOUNDARY_CFG + "kernel_pieces = 96\n"),
    ("ratio_rtol", NORM_CFG + "ratio_rtol = 1\n"),
    ("z_max", ISO_CFG + "z_max = 100\n"),
    ("pass_fraction", ISO_CFG + "pass_fraction = 0.01\n"),
    ("gauss_rtol", MOMENTS_CFG + "gauss_rtol = 0.2\n"),
    ("chaos2_rtol", MOMENTS_CFG + "chaos2_rtol = 0.3\n"),
    ("combo_bound", MOMENTS_CFG + "combo_bound = 10\n"),
    ("t_end", MOMENTS_CFG + "t_end = 1\n"),
    ("z_max", SPDE_CFG + "z_max = 100\n"),
    ("smoothing_tol", SPDE_CFG + "smoothing_tol = 1\n"),
    ("z_max", BOUNDARY_CFG + "z_max = 100\n"),
    ("stability_rtol", BOUNDARY_CFG + "stability_rtol = 1\n"),
    ("margin", SWEEP_CFG + "margin = 1\n"),
    # the driver scale: every norm and second moment scales with it, no z-score or verdict
    ("sigma", NORM_CFG + "sigma = 1\n"),
    ("sigma", ISO_CFG + "sigma = 1\n"),
    ("sigma", SPDE_CFG + "sigma = 1\n"),
    ("sigma", BOUNDARY_CFG + "sigma = 1\n"),
    ("sigma", SWEEP_CFG + "sigma = 1\n"),
)

SPECTRUM_MESSAGE = "the spectrum (k pi / L)^(2m) leaves the floating-point range at length 1e+300"

# 900 paths draw a warning, the only fault of the run: its ratios pass
# their bands, which widen as the path count falls
WARN_CFG = """\
config_version = 1
kind = moments
seed = 2
n_paths = 900
n_draws = 5
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _run(tmp_path, text, *extra):
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    code = main(["run", str(cfg), "--out", str(out), *extra])
    return code, out


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return header, rows


# ---------------------------------------------------------------------------


class TestFlatParser:
    def test_comments_blanks_and_spacing(self):
        raw = parse_flat_config("# note\n\n  a = 1\nb=x y\t\n")
        assert raw == {"a": "1", "b": "x y"}

    def test_rejects_line_without_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_flat_config("just words\n")

    def test_rejects_bad_key(self):
        with pytest.raises(ConfigError, match="bad key"):
            parse_flat_config("2fast = 1\n")

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_flat_config("a = 1\na = 2\n")

    def test_collects_every_problem(self):
        with pytest.raises(ConfigError) as err:
            parse_flat_config("bogus\n-x = 1\n")
        assert len(err.value.problems) == 2


class TestValidation:
    def _raw(self, **over):
        base = {
            "config_version": "1",
            "kind": "norm-identity",
            "seed": "0",
            "hurst": "0.3",
            "n_functions": "2",
        }
        base.update(over)
        return {k: v for k, v in base.items() if v is not None}

    def test_minimal_config_and_defaults(self):
        cfg = validate_config(self._raw())
        assert cfg.kind == "norm-identity"
        assert cfg.seed == 0
        assert cfg.params["t_end"] == 1.0
        assert cfg.params["grid_steps"] == 256
        assert cfg.params["hurst"] == (0.3,)

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="'kind'"):
            validate_config({"config_version": "1"})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            validate_config(self._raw(kind="walk"))

    def test_version_required_and_checked(self):
        with pytest.raises(ConfigError, match="config_version"):
            validate_config(self._raw(config_version=None))
        with pytest.raises(ConfigError, match="unsupported config_version"):
            validate_config(self._raw(config_version=str(CONFIG_VERSION + 1)))

    @pytest.mark.parametrize(
        "seed, problem",
        [
            (None, "missing required key 'seed'"),
            ("-1", "key 'seed': must be >= 0"),
            ("1.5", "key 'seed': expected an integer, got '1.5'"),
        ],
        ids=["missing", "negative", "fractional"],
    )
    def test_seed_required_and_nonnegative(self, seed, problem):
        # the seed's problem comes before those of the kind's own keys
        with pytest.raises(ConfigError) as err:
            validate_config(self._raw(seed=seed, hurst=None))
        assert err.value.problems == [problem, "missing required key 'hurst'"]

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("t_end", "nan"),
            ("t_end", "NaN"),
            ("t_end", "inf"),
            ("t_end", "-inf"),
            ("t_end", "1e999"),  # overflows while parsing
            ("hurst", "0.3, nan"),
        ],
    )
    def test_non_finite_number_rejected(self, key, raw):
        with pytest.raises(ConfigError, match="finite number"):
            validate_config(self._raw(**{key: raw}))

    def test_large_finite_number_accepted(self):
        # validation takes any finite number; an overflow inside the model
        # is diagnosed when the config runs
        assert validate_config(self._raw(t_end="1e300")).params["t_end"] == 1e300

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'wavelets'"):
            validate_config(self._raw(wavelets="9"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="grid is empty"):
            validate_config(self._raw(hurst=""))

    @pytest.mark.parametrize("raw", ["0.3,,0.6,", "0.3, 0.6,", ","])
    def test_empty_grid_element_rejected(self, raw):
        with pytest.raises(ConfigError, match="expected a number, got ''"):
            validate_config(self._raw(hurst=raw))

    def test_bad_number_message(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            validate_config(self._raw(n_functions="many"))

    def test_range_checks(self):
        with pytest.raises(ConfigError, match="\\(0, 1\\)"):
            validate_config(self._raw(hurst="1.2"))
        with pytest.raises(ConfigError, match="n_functions"):
            validate_config(self._raw(n_functions="0"))

    def test_out_dir_passthrough(self):
        cfg = validate_config(self._raw(out_dir="artifacts"))
        assert cfg.out_dir == "artifacts"

    def test_load_config_hashes_bytes(self, tmp_path):
        p = _write(tmp_path, NORM_CFG)
        cfg = load_config(p)
        assert cfg.text_hash == hashlib.sha256(p.read_bytes()).hexdigest()


class TestListExperiments:
    def test_three_lines_per_kind(self):
        lines = list_experiments_text().splitlines()
        assert len(lines) == 3 * len(EXPERIMENTS)
        for name in EXPERIMENTS:
            assert any(line.startswith(name) for line in lines)
        for i in range(0, len(lines), 3):
            assert lines[i + 1].strip().startswith("required: config_version, kind, seed")
            assert lines[i + 2].strip().startswith("optional:")

    def test_stable_across_calls(self):
        assert list_experiments_text() == list_experiments_text()

    def test_cli_prints_the_table(self, capsys):
        assert main(["list-experiments"]) == 0
        assert capsys.readouterr().out == list_experiments_text() + "\n"

    def test_table_matches_readme(self):
        assert list_experiments_text() in README.read_text(encoding="utf-8")

    def test_columns_documented_in_help_and_readme(self):
        docs = column_docs_text()
        assert docs in build_parser().format_help()
        assert docs in README.read_text(encoding="utf-8")
        for exp in EXPERIMENTS.values():
            names = [name for name, _ in exp.columns]
            assert len(set(names)) == len(names)
            assert all(doc for _, doc in exp.columns)


def test_import_loads_no_scipy():
    # the runtime needs numpy only; importing scipy.special costs 66 modules,
    # about 23 MB and 0.15 s of start-up per process
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import fracwiener.cli, sys; sys.exit(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy') or None)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestNormIdentityRun:
    def test_artifacts_and_values(self, tmp_path):
        code, out = _run(tmp_path, NORM_CFG)
        assert code == 0
        header, rows = _read_csv(out / "results.csv")
        assert header == ["H", "f-id", "dh_norm", "fourier_norm", "ratio", "pass"]
        assert len(rows) == 6
        for row in rows:
            h, ratio = float(row[0]), float(row[4])
            assert ratio == pytest.approx(norm_equivalence_constant(h), rel=1e-3)
            assert row[5] == "true"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["summary_version"] == 1
        assert summary["n_failed"] == 0

    def test_csv_is_crlf_utf8(self, tmp_path):
        _, out = _run(tmp_path, NORM_CFG)
        blob = (out / "results.csv").read_bytes()
        assert b"\r\n" in blob
        blob.decode("utf-8")

    def test_manifest_contents(self, tmp_path):
        cfg = _write(tmp_path, NORM_CFG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert manifest["code_version"] == __version__
        assert manifest["exit_code"] == 0
        assert manifest["kind"] == "norm-identity"
        assert all(v["passed"] for v in manifest["verdicts"])
        assert manifest["started"] <= manifest["finished"]

    def test_failures_exit_1_with_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "_RATIO_RTOL", 1e-12)
        code, out = _run(tmp_path, NORM_CFG)
        assert code == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 1

    def test_out_dir_from_config(self, tmp_path):
        target = tmp_path / "from_config"
        cfg = _write(tmp_path, NORM_CFG + f"out_dir = {target}\n")
        assert main(["run", str(cfg)]) == 0
        assert (target / "results.csv").exists()


class TestInvalidConfigExit2:
    @pytest.mark.parametrize(
        "text",
        [
            NORM_CFG + "wavelets = 9\n",
            NORM_CFG.replace("hurst = 0.25, 0.6", "hurst ="),
            NORM_CFG.replace("config_version = 1", "config_version = 99"),
            NORM_CFG + "seed = 1\n",  # duplicate key
            BOUNDARY_CFG + "n_x = 4\n",  # x_nodes is the one node input
            ROS_CFG.replace("hurst = 0.75", "hurst = 0.4"),
            NORM_CFG + "t_end = inf\n",
            # non-finite numbers, in a grid and as single values
            SWEEP_CFG.replace("alpha = 0.0, 0.1, 0.2, 0.3", "alpha = 0.1, nan"),
            SPDE_CFG.replace("alpha = 0.0", "alpha = inf"),
            SPDE_CFG + "p = inf\n",
            # finite parameters that overflow inside the model
            NORM_CFG + "t_end = 1e300\n",
            ISO_CFG.replace("hurst = 0.3, 0.7", "hurst = 0.75") + "t_end = 1e250\n",
            # spectral numbers that overflow: the block masses of a huge alpha,
            # and the top eigenvalue of a tiny domain
            SWEEP_CFG.replace("alpha = 0.0, 0.1, 0.2, 0.3", "alpha = 0, 1, 5, 30"),
            SPDE_CFG.replace("length = 3.141592653589793", "length = 1e-200"),
            # a floor for a fit that is not asked for
            SPDE_CFG + "holder_floor = 0.9\n",
            # a horizon beyond the reach of the Neumann image sum
            BOUNDARY_CFG.replace("t0 = 1.0", "t0 = 101"),
            # inputs that every run fixed to one value
            *(text for _, text in REMOVED_KEYS),
        ],
    )
    def test_exit_2(self, tmp_path, text, capsys):
        code, _ = _run(tmp_path, text)
        assert code == 2
        assert "invalid config" in capsys.readouterr().err

    def test_sampler_is_not_a_key(self, tmp_path, capsys):
        # the grid size picks the fBm sampler
        code, _ = _run(tmp_path, ISO_CFG + "method = circulant\n")
        assert code == 2
        assert "unknown key 'method'" in capsys.readouterr().err

    def test_isometry_order_is_not_a_key(self, tmp_path, capsys):
        # the generalized family is the k = 2 one
        code, _ = _run(tmp_path, ISO_CFG + "k = 2\n")
        assert code == 2
        assert "unknown key 'k'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,text", REMOVED_KEYS, ids=[k for k, _ in REMOVED_KEYS])
    def test_removed_input_is_not_a_key(self, tmp_path, key, text, capsys):
        code, _ = _run(tmp_path, text)
        assert code == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_image_count_is_not_a_key(self, tmp_path, capsys):
        # the horizon picks the number of Neumann images
        code, _ = _run(tmp_path, BOUNDARY_CFG + "image_terms = 20\n")
        assert code == 2
        assert "unknown key 'image_terms'" in capsys.readouterr().err

    def test_long_horizon_is_diagnosed(self, tmp_path, capsys):
        code, _ = _run(tmp_path, BOUNDARY_CFG.replace("t0 = 1.0", "t0 = 101"))
        assert code == 2
        assert "horizon t0 = 101 at length 1" in capsys.readouterr().err

    def test_boundary_expectation_is_not_a_key(self, tmp_path, capsys):
        # the boundary-noise integral is finite for every admitted (H, p)
        code, _ = _run(tmp_path, BOUNDARY_CFG + "expect = finite\n")
        assert code == 2
        assert "unknown key 'expect'" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "no-such-file.cfg"]) == 2

    def test_overflow_is_diagnosed(self, tmp_path, monkeypatch, capsys):
        # every overflow a config can reach is refused as a ValueError first;
        # the stand-in raises what a Python float power raises past the range
        def overflow(cfg):
            raise OverflowError("(34, 'Numerical result out of range')")

        exp = EXPERIMENTS["isometry"]
        monkeypatch.setitem(EXPERIMENTS, "isometry", dataclasses.replace(exp, runner=overflow))
        code, _ = _run(tmp_path, ISO_CFG)
        assert code == 2
        err = capsys.readouterr().err
        assert "overflowed the floating-point range: (34, 'Numerical result out of range')" in err
        assert "Traceback" not in err

    def test_memory_error_is_diagnosed(self, tmp_path, monkeypatch, capsys):
        # n_noise_cells has no upper bound; at 10^6 cells the kernel array of
        # _cell_averages is 13.2 TiB.  The stand-in raises numpy's message
        # without allocating anything.
        message = "Unable to allocate 13.2 TiB for an array with shape (1818340, 1000000)"

        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(processes, "_cell_averages", no_memory)
        code, out = _run(tmp_path, ROS_CFG)
        assert code == 2
        err = capsys.readouterr().err
        assert f"did not fit in memory: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_below_a_file_is_diagnosed(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        out = tmp_path / "afile" / "sub"
        cfg = _write(tmp_path, NORM_CFG)
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"output directory {out}:" in err
        assert "Traceback" not in err

    def test_out_dir_on_a_file_is_diagnosed(self, tmp_path, capsys):
        target = tmp_path / "afile"
        target.write_text("", encoding="utf-8")
        cfg = _write(tmp_path, NORM_CFG + f"out_dir = {target}\n")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"output directory {target}:" in err
        assert "Traceback" not in err

    def test_fourier_norm_overflow_is_diagnosed(self, tmp_path, capsys):
        # the norm is checked for finiteness itself: no RuntimeWarning on the
        # way, and no OverflowError behind the exit code
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _ = _run(tmp_path, NORM_CFG + "t_end = 1e300\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "Fourier Sobolev norm is not finite at grid step 3.90625e+297" in err
        assert "overflowed the floating-point range" not in err

    @pytest.mark.parametrize("t_end, step", [("1e250", "7.8125e+247"), ("1e300", "7.8125e+297")])
    def test_fbm_covariance_overflow_is_diagnosed(self, tmp_path, t_end, step, capsys):
        # simulate_fbm checks its increment autocovariance: no RuntimeWarning
        # from covariance_rh, and no nan written as a result
        text = ISO_CFG.replace("hurst = 0.3, 0.7", "hurst = 0.75") + f"t_end = {t_end}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = _run(tmp_path, text)
        assert code == 2
        err = capsys.readouterr().err
        assert f"increment autocovariance is not finite at grid step {step} and H = 0.75" in err
        assert not (out / "results.csv").exists()

    def test_zero_division_stays_loud(self, monkeypatch):
        # only ValueError and OverflowError are config faults; any other
        # arithmetic error is a bug and must raise
        def boom(cfg):
            raise ZeroDivisionError("division by zero")

        exp = EXPERIMENTS["norm-identity"]
        monkeypatch.setitem(EXPERIMENTS, "norm-identity", dataclasses.replace(exp, runner=boom))
        cfg = validate_config(parse_flat_config(NORM_CFG))
        with pytest.raises(ZeroDivisionError):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "text, message",
        [
            (SWEEP_CFG + "t0 = 1e-6\n", "horizon t0 = "),
            (SWEEP_CFG + "length = 1e300\n", SPECTRUM_MESSAGE),
            (SPDE_CFG.replace("length = 3.141592653589793", "length = 1e300"), SPECTRUM_MESSAGE),
        ],
        ids=["sweep-short-t0", "sweep-huge-length", "spde-huge-length"],
    )
    def test_unresolved_horizon_is_diagnosed(self, tmp_path, text, message, capsys):
        # lambda_K t0 < 1: the K-doubling detector cannot see the mode series
        # decay; at a huge length every eigenvalue underflows to 0
        code, _ = _run(tmp_path, text)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_supercritical_alpha_is_diagnosed(self, tmp_path, capsys):
        text = SPDE_CFG.replace("alpha = 0.0", "alpha = 0.3").replace("hurst = 0.5", "hurst = 0.4")
        code, _ = _run(tmp_path, text)
        assert code == 2
        assert "existence threshold" in capsys.readouterr().err


class TestDeterminism:
    # 5000 boundary and 4500 Rosenblatt paths span two path blocks, so
    # --threads 4 splits the draws
    @pytest.mark.parametrize(
        "text",
        [
            ISO_CFG,
            ROS_CFG.replace("n_paths = 2000", "n_paths = 4500"),
            BOUNDARY_CFG.replace("n_paths = 1000", "n_paths = 5000"),
        ],
        ids=["isometry", "isometry-rosenblatt", "spde-boundary"],
    )
    def test_rerun_and_threads_suite(self, tmp_path, text):
        cfg = _write(tmp_path, text)
        blobs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            assert main(["run", str(cfg), "--out", str(out), "--threads", threads]) == 0
            blobs.append(
                ((out / "results.csv").read_bytes(), (out / "summary.json").read_bytes())
            )
        assert blobs[0] == blobs[1] == blobs[2]


class TestKinds:
    def test_isometry_fbm(self, tmp_path):
        code, out = _run(tmp_path, ISO_CFG)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["z_scores"]) == 6
        assert summary["fraction_within"] == 1.0

    def test_isometry_fbm_long_grid(self, tmp_path):
        code, out = _run(tmp_path, ISO_CFG.replace("grid_steps = 128", "grid_steps = 4096"))
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["n_cases"] == 6

    def test_near_wall_node_is_diagnosed(self, tmp_path, capsys):
        for x in ("1e-200", "1e-100"):
            code, _ = _run(tmp_path, BOUNDARY_CFG.replace("x_nodes = 0.5", f"x_nodes = {x}, 0.5"))
            assert code == 2
            assert f"x_nodes: node {x}" in capsys.readouterr().err

    def test_isometry_rosenblatt(self, tmp_path):
        code, out = _run(tmp_path, ROS_CFG)
        assert code == 0
        header, rows = _read_csv(out / "results.csv")
        assert [r[0] for r in rows] == ["rosenblatt", "rosenblatt"]
        assert all(abs(float(r[5])) <= 3.0 for r in rows)

    def test_isometry_generalized_needs_alpha_beta(self, tmp_path, capsys):
        code, _ = _run(tmp_path, ISO_CFG.replace("family = fbm", "family = generalized"))
        assert code == 2
        assert "alpha and beta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [ISO_CFG + "alpha = 0.7\nbeta = -5\n", ROS_CFG + "alpha = -1.25\n"],
        ids=["fbm", "rosenblatt"],
    )
    def test_isometry_alpha_beta_need_the_generalized_family(self, tmp_path, capsys, text):
        # the two keys have no effect on the other families
        code, _ = _run(tmp_path, text)
        assert code == 2
        assert "alpha and beta apply to the generalized family only" in capsys.readouterr().err

    def test_moments(self, tmp_path):
        code, out = _run(tmp_path, MOMENTS_CFG)
        assert code == 0
        header, rows = _read_csv(out / "results.csv")
        assert header == ["check", "draw", "ratio", "reference", "pass"]
        assert [r[0] for r in rows[:2]] == ["gaussian", "chaos2"]
        assert sum(r[0] == "combo" for r in rows) == 20
        assert max(float(r[2]) for r in rows if r[0] == "combo") <= 3.0

    def test_moments_band_follows_the_path_count(self):
        # the ratio's relative SE at 20000 paths is 0.29% (gaussian) and 2.4%
        # (chaos2); seed 0 reads a chaos2 ratio 3.5% above the limit, within 3 SE
        text = MOMENTS_CFG.replace("seed = 5", "seed = 0")
        res = run_experiment(validate_config(parse_flat_config(text)))
        assert [v.passed for v in res.verdicts] == [True, True, True]

    def test_spde_distributed(self, tmp_path):
        code, out = _run(tmp_path, SPDE_CFG)
        assert code == 0
        header, rows = _read_csv(out / "results.csv")
        assert len(rows) == 2
        # H = 1/2 closed form for the leading mode
        lam = float(rows[0][1])
        expected = float(rows[0][3])
        import math

        assert expected == pytest.approx((1 - math.exp(-2 * lam)) / (2 * lam), rel=1e-3)
        assert all(r[5] == "true" for r in rows)

    def test_spde_distributed_admits_alpha_below_threshold(self, tmp_path, capsys):
        # H - 1/(4m) = 0.25: alpha = 0.245 is admitted by the closed form
        code, _ = _run(tmp_path, SPDE_CFG.replace("alpha = 0.0", "alpha = 0.245"))
        assert code != 2
        assert "invalid config" not in capsys.readouterr().err

    def test_spde_distributed_short_horizon(self, tmp_path):
        # no truncation-resolves-the-horizon guard on the mild solve
        code, _ = _run(tmp_path, SPDE_CFG.replace("t_end = 1.0", "t_end = 1e-6"))
        assert code == 0

    def test_spde_distributed_vanishing_spectrum(self, tmp_path):
        # lam_k ~ k^2 1e-199: each mode is fBm at t_end = 1, second moment 1
        text = (
            COARSE_SPDE_CFG.replace("length = 3.141592653589793", "length = 1e100")
            .replace("hurst = 0.5", "hurst = 0.9")
            .replace("truncation = 8", "truncation = 4")
        )
        code, out = _run(tmp_path, text)
        assert code == 0
        _, rows = _read_csv(out / "results.csv")
        assert [float(r[3]) for r in rows] == [1.0] * 4

    def test_spde_distributed_paths_all_zero_fail(self, tmp_path):
        # at t_end = 1e100 the left-point factor e^{-lam dt} is 0, so every path
        # is 0: a zero spread against a positive target is z = -inf, not a pass
        text = (
            SPDE_CFG.replace("hurst = 0.5", "hurst = 0.9")
            .replace("truncation = 4", "truncation = 8")
            .replace("grid_steps = 512", "grid_steps = 32")
            .replace("t_end = 1.0", "t_end = 1e100")
            .replace("check_modes = 2", "check_modes = 5")
        )
        code, out = _run(tmp_path, text)
        assert code == 1
        header, rows = _read_csv(out / "results.csv")
        assert len(rows) == 5
        for r in rows:
            assert float(r[header.index("mc_second_moment")]) == 0.0
            assert float(r[header.index("expected_second_moment")]) > 0.0
            assert (r[header.index("z")], r[header.index("pass")]) == ("-inf", "false")

    def test_spde_distributed_fitted_exponents(self, tmp_path):
        text = SPDE_CFG + "fit_holder = true\nholder_floor = 0.1\n"
        code, out = _run(tmp_path, text)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.1 < summary["fitted_exponents"]["holder"] < 1.0

    def test_spde_boundary(self, tmp_path):
        code, out = _run(tmp_path, BOUNDARY_CFG)
        assert code == 0
        header, rows = _read_csv(out / "results.csv")
        assert header == ["x", "mc_variance", "expected_variance", "z", "pass"]
        assert len(rows) == 1 and rows[0][0] == "0.5"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["integral_diverged"] is False
        assert summary["gamma_norm"] > 0

    def test_spde_boundary_long_domain(self, tmp_path):
        # the far Neumann images' d^2 / 4u overflows; exp(-inf) = 0 is their
        # weight, with no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _ = _run(tmp_path, BOUNDARY_CFG.replace("length = 1.0", "length = 1e200"))
        assert code == 0

    def test_threshold_sweep(self, tmp_path):
        code, out = _run(tmp_path, SWEEP_CFG)
        assert code == 0
        _, rows = _read_csv(out / "results.csv")
        assert [r[4] for r in rows] == ["false", "false", "true", "true"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["first_diverged_alpha"]["0.4"] == 0.2


class TestFewPathsWarning:
    @pytest.mark.parametrize(
        "text",
        [
            ISO_CFG.replace("n_paths = 3000", "n_paths = 500"),
            MOMENTS_CFG.replace("n_paths = 20000", "n_paths = 500"),
            SPDE_CFG.replace("n_paths = 1500", "n_paths = 500"),
            BOUNDARY_CFG.replace("n_paths = 1000", "n_paths = 500"),
        ],
    )
    def test_one_rule_for_every_monte_carlo_kind(self, text):
        res = run_experiment(validate_config(parse_flat_config(text)))
        assert res.warnings == ["n_paths = 500 is small for stable Monte Carlo statistics"]

    def test_comes_before_the_runner_warnings(self):
        text = SPDE_CFG.replace("n_paths = 1500", "n_paths = 500") + "fit_smoothing = true\n"
        res = run_experiment(validate_config(parse_flat_config(text)))
        assert len(res.warnings) == 2
        assert res.warnings[0].startswith("n_paths = 500")
        assert res.warnings[1].startswith("truncation = 4")

    def test_silent_at_1000_paths(self):
        assert run_experiment(validate_config(parse_flat_config(BOUNDARY_CFG))).warnings == []


class TestStrictMode:
    def test_warnings_fatal_only_under_strict(self, tmp_path, capsys):
        code, _ = _run(tmp_path, WARN_CFG)
        assert code == 0
        assert "warning" in capsys.readouterr().err
        code, out = _run(tmp_path, WARN_CFG, "--strict")
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"]


# ---------------------------------------------------------------------------
# config fuzz: every input gives an exit code, never a traceback

# each example starts from a valid config of its kind, draws every integer
# key (a size) from a small range so the run stays short and small in memory,
# and overwrites up to three other keys with values from a pool that mixes
# plausible and hostile ones
FUZZ_BASES = {
    "norm-identity": NORM_CFG,
    "isometry": ROS_CFG,
    "moments": MOMENTS_CFG,
    "spde-distributed": SPDE_CFG,
    "spde-boundary": BOUNDARY_CFG.replace("x_nodes = 0.5\n", ""),
    "threshold-sweep": SWEEP_CFG,
}
SIZES = {
    "n_paths": (2, 400), "grid_steps": (8, 64), "truncation": (8, 32), "doublings": (1, 3),
    "n_noise_cells": (16, 128), "n_functions": (1, 4), "pieces": (1, 8), "n_draws": (1, 5),
    "n_cells": (8, 64), "m": (1, 3), "check_modes": (1, 8),
}
SCALARS = (
    "0", "-1", "-0.5", "1e-300", "1e300", "1e-100", "1e100", "nan", "inf", "-inf",
    "0.1", "0.25", "0.6", "0.75", "1", "2", "3.141592653589793",
)


def _scalar(key):
    if key.coerce is _float:
        return st.sampled_from(SCALARS)
    if key.coerce is _floats:
        return st.lists(st.sampled_from(SCALARS), min_size=1, max_size=3).map(", ".join)
    if key.coerce is _bool:
        return st.sampled_from(("true", "false", "nan"))
    return st.sampled_from(("fbm", "rosenblatt", "generalized", "nan"))


@st.composite
def fuzz_configs(draw):
    kind = draw(st.sampled_from(sorted(FUZZ_BASES)))
    raw = parse_flat_config(FUZZ_BASES[kind])
    keys = (*EXPERIMENTS[kind].required, *EXPERIMENTS[kind].optional)
    for key in keys:
        if key.coerce is _int:
            raw[key.name] = str(draw(st.integers(*SIZES[key.name])))
    scalars = [k for k in keys if k.coerce is not _int]
    if scalars:  # moments has integer keys only
        for key in draw(st.lists(st.sampled_from(scalars), max_size=3, unique=True)):
            raw[key.name] = draw(_scalar(key))
    return "".join(f"{k} = {v}\n" for k, v in raw.items())


@given(text=fuzz_configs())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_config_fuzz_exits_with_a_code(text):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(Path(tmp) / "out")]) in (0, 1, 2)
