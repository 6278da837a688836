"""Tests of the benchmark harness itself; they run the smoke configs.

    python3 -m pytest perfbench

They check that ``BENCHMARK.json`` names the metrics ``run.py`` prints,
that every workload runs, passes its output check and gives every
per-layer metric when traced, that a wrong answer is reported as a
failure, and that ``run.py`` refuses to run without the program.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import COLUMNS, REFERENCE_FILE, WORKLOADS, check_artifacts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_run(workload):
    out = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", "1", "--smoke"))
    assert out["correct"] and out["failed"] == 0, out
    # one untraced and one traced iteration, compared byte for byte
    assert out["attempted"] == 2 * len(WORKLOADS[workload].configs)
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert 0.95 < metrics["trace.accounted_share"] <= 1.0
    assert metrics["experiments.run_experiment.s"] > 0
    if workload == "chaos2-isometry":
        assert metrics["chaos.normals"] > 0 and metrics["processes.simulate_fbm.calls"] == 0
    if workload == "spde-holder":
        assert metrics["processes.simulate_fbm.calls"] == 4
        assert metrics["processes.simulate_hermite_k2.calls"] == 0


def test_smoke_end_to_end_all_workloads():
    proc = bench("--workload", "all", "--seed", "5", "--seconds", "0", "--trace", "0", "--smoke")
    out = last_json(proc)
    assert out["correct"] and out["failed"] == 0, out
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(out["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}
    for w in WORKLOADS:
        assert f"{w} error_rate: 0 " in proc.stdout


def test_wrong_answer_is_a_problem(tmp_path):
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    expected = reference["analytic-sweep"]["0"]["threshold-sweep"]
    rows = [("0.35", "0.1", "0.1", "1.5", "false", "true")]
    lines = ["H,alpha,threshold,gamma_norm,diverged,pass"] + [",".join(r) for r in rows]
    (tmp_path / "results.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "summary.json").write_text("{}", encoding="utf-8")
    problems = check_artifacts("threshold-sweep", tmp_path, expected, smoke=True)
    assert any("gamma_norm" in p for p in problems)
    right = expected["rows"]["0.35|0.1"]
    rows = [("0.35", "0.1", "0.1", right["gamma_norm"], right["diverged"], "true")]
    lines = lines[:1] + [",".join(r) for r in rows]
    (tmp_path / "results.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert check_artifacts("threshold-sweep", tmp_path, expected, smoke=True) == []
    assert check_artifacts("threshold-sweep", tmp_path, expected, smoke=False) != []


def test_reference_covers_every_config():
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    for name, w in WORKLOADS.items():
        for seed, per_kind in reference[name].items():
            assert set(per_kind) == {c.kind for c in w.configs}
            for kind, got in per_kind.items():
                assert got["rows"], (name, seed, kind)
                assert set(got["summary"]) == set(COLUMNS[kind].summary_reference)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", "spde-holder", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
