"""Command line runner for the experiment registry.

``fracwiener run CONFIG`` executes one declarative experiment and writes
three artifacts into the output directory: ``results.csv`` (one row per
sweep point, RFC-4180 style, '.' decimal, UTF-8), ``summary.json``
(versioned machine-readable summary) and ``manifest.json`` (config hash,
code version, timestamps, per-assertion verdicts).  The CSV and the
summary depend only on (config, seed), never on the thread count or the
wall clock, so reruns are byte-identical; timestamps live in the
manifest alone.

Exit codes: 0 all in-config assertions passed; 1 assertion failures
(a failure table is printed); 2 invalid config, including a parameter
the model rejects or an output directory that cannot be written
(diagnostics on stderr).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    EXPERIMENTS,
    ConfigError,
    SUMMARY_VERSION,
    column_docs_text,
    list_experiments_text,
    load_config,
    run_experiment,
)
from .rng import worker_threads

__all__ = ["build_parser", "main"]

_EPILOG = """\
config format: flat 'key = value' lines, '#' comments, no nesting.
Run 'fracwiener list-experiments' for the keys of every experiment kind.

CSV columns, per kind:

{columns}
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracwiener",
        description="Reproducible experiments on Wiener integration for fractional processes.",
        epilog=_EPILOG.format(columns=column_docs_text()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="execute one experiment config",
        description="Execute one experiment config and write results.csv, "
        "summary.json and manifest.json.",
    )
    run_p.add_argument("config", help="path to a flat key = value config file")
    run_p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="worker threads (outputs do not depend on it)")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: out_dir from the config, else 'runs')")
    run_p.add_argument("--strict", action="store_true",
                       help="treat runner warnings as failures")

    sub.add_parser("list-experiments", help="table of experiment kinds and their config keys")
    return parser


# ---------------------------------------------------------------------------
# artifact writing


def _cell(value) -> str:
    # bool first: it is an int subclass
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_results_csv(path: Path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _json_ready(obj):
    """Plain-python view of a summary; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    return obj


def _dump_json(path: Path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_ready(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _utc(stamp: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))


# ---------------------------------------------------------------------------
# run command


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        _config_diagnostics(exc)
        return 2

    threads = max(1, args.threads)
    started = time.time()
    try:
        with worker_threads(threads):
            result = run_experiment(cfg)
    except ConfigError as exc:
        _config_diagnostics(exc)
        return 2
    finished = time.time()

    failures = [v for v in result.verdicts if not v.passed]
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    strict_failed = bool(args.strict and result.warnings)
    exit_code = 1 if failures or strict_failed else 0

    out_dir = Path(args.out or cfg.out_dir or "runs")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        columns = [name for name, _ in EXPERIMENTS[cfg.kind].columns]
        write_results_csv(out_dir / "results.csv", columns, result.rows)
        _dump_json(out_dir / "summary.json", result.summary)
        _dump_json(
            out_dir / "manifest.json",
            {
                "manifest_version": SUMMARY_VERSION,
                "kind": cfg.kind,
                "seed": cfg.seed,
                "config_hash": cfg.text_hash,
                "code_version": __version__,
                "started": _utc(started),
                "finished": _utc(finished),
                "duration_s": finished - started,
                "threads": threads,
                "strict": bool(args.strict),
                "warnings": list(result.warnings),
                "verdicts": [v.to_record() for v in result.verdicts],
                "exit_code": exit_code,
                "artifacts": ["results.csv", "summary.json", "manifest.json"],
            },
        )
    except OSError as exc:
        # the run is complete; only its artifacts could not be written
        _config_diagnostics(f"output directory {out_dir}: {exc}")
        return 2

    n = len(result.verdicts)
    if failures:
        print(f"{cfg.kind}: {len(failures)} of {n} assertions FAILED -> {out_dir}")
        width = max(len(v.case) for v in failures)
        for v in failures:
            print(f"  FAIL  {v.case:<{width}}  {v.detail}")
    else:
        print(f"{cfg.kind}: {n} assertions passed -> {out_dir}")
    if strict_failed:
        print(f"strict mode: {len(result.warnings)} warning(s) treated as failures")
    return exit_code


def _config_diagnostics(exc):
    print("invalid config:", file=sys.stderr)
    problems = getattr(exc, "problems", None) or [str(exc)]
    for p in problems:
        print(f"  {p}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-experiments":
        print(list_experiments_text())
        return 0
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
