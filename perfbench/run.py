"""fracwiener benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout.  One benchmark run is a closed
loop with one client: it starts a fresh ``perfbench/child.py`` process
per iteration, which imports ``fracwiener.cli`` from ``src/`` and runs the
workload's configs through ``fracwiener.cli.main``; the next iteration
starts only after the previous one has ended.  Iterations repeat while
the next one, timed like the longest so far, still ends within
``--seconds``; a run makes at least one (two when traced).  Each process
gets ``--threads 2`` with BLAS pinned to one thread.

Every call's outputs are checked: exit code 0 or 1 (a failed in-config
assertion is a verdict, not an error), ``results.csv`` and
``summary.json`` byte-identical across the iterations of the run, the
deterministic columns equal to ``reference.json`` and the Monte Carlo
columns finite.  A call that breaks any of these counts as failed.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (wall time of an
iteration's ``cli.main`` calls, averaged over the whole run), ``setup_s``
(median time from process start to ``fracwiener.cli`` imported and
configs loaded, over every process of the run) and ``peak_rss_mb``
(highest peak RSS of the run's iteration processes).  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer
metrics of ``tracer.aggregate`` plus the tracing overhead.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
every metric with its unit, the sample counts, the error rate, the
program's verdict counts and the machine record;
``perfbench/_work/report-<workload>.json`` keeps every sample.
``--workload all`` runs every workload in turn.

The benchmark measures only the processes it starts; it uses no
machine-wide tracing and does not touch the OS caches.  ``--smoke`` runs
reduced configs whose rows are a subset of the recorded ones, for the
harness's own tests.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import aggregate
from workloads import (
    BLAS_ENV,
    REFERENCE_FILE,
    THREADS,
    WORKLOADS,
    check_artifacts,
    config_seed,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
# a run must end within 180 s; no iteration starts that could run past this
BUDGET_S = 165.0
# a set-up-only process at the start of each run warms the caches; it is
# not counted
SETUP_PROBES = 1

COUNTS = ("calls", "normals", "verdicts", "verdicts_failed", "spans")


def _unit(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_mb"):
        return "MB"
    if last in COUNTS:
        return "count"
    if last == "accounted_share":
        return "ratio"
    return "s"


class WorkloadRun:
    """The iterations of one workload at one seed, with their checks."""

    def __init__(self, name: str, seed: int, smoke: bool, reference: dict):
        self.workload = WORKLOADS[name]
        self.seed = config_seed(seed)
        self.smoke = smoke
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "cfg").mkdir(parents=True)
        self.expected = reference[name][str(self.seed)]
        self.configs = []
        for cfg in self.workload.configs:
            path = self.dir / "cfg" / f"{cfg.kind}.cfg"
            path.write_text(cfg.text(self.seed, smoke), encoding="utf-8")
            self.configs.append((cfg.kind, path))
        self.first_bytes = {}
        self.env = dict(os.environ, **BLAS_ENV)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def iteration(self, k: int, trace: bool, setup_only: bool, stop_at: float) -> dict:
        it_dir = self.dir / f"it{k}"
        it_dir.mkdir()
        calls = [{"config": str(p), "out": str(it_dir / kind)} for kind, p in self.configs]
        job = {
            "calls": calls,
            "threads": THREADS,
            "trace": trace,
            "setup_only": setup_only,
            "result": str(it_dir / "result.json"),
        }
        job_path = it_dir / "job.json"
        started = time.perf_counter()
        job["spawned"] = started
        job_path.write_text(json.dumps(job), encoding="utf-8")
        with open(it_dir / "child.log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=max(1.0, stop_at - time.perf_counter()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        wall = time.perf_counter() - started
        try:
            with open(job["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            log_tail = (it_dir / "child.log").read_text(encoding="utf-8")[-2000:]
            n = 0 if setup_only else len(calls)
            rec = {"wall_s": wall, "attempted": n, "failed": n, "trace": trace,
                   "problems": [f"run process ended with {proc.returncode}: {log_tail}"]}
            shutil.rmtree(it_dir, ignore_errors=True)
            return rec
        rec = {"wall_s": wall, "setup_s": result["setup_s"], "trace": trace,
               "versions": result["versions"]}
        if not setup_only:
            rec.update(self._check(result, it_dir))
            if trace:
                rec["layers"] = aggregate(result["spans"], result["main_tid"], rec["run_s"])
                rec["layers"]["experiments.verdicts"] = rec["verdicts"]
                rec["layers"]["experiments.verdicts_failed"] = rec["verdicts_failed"]
        shutil.rmtree(it_dir, ignore_errors=True)
        return rec

    def _check(self, result: dict, it_dir: Path) -> dict:
        problems, failed, verdicts, verdicts_failed = [], 0, 0, 0
        for (kind, _), call in zip(self.configs, result["calls"]):
            out = it_dir / kind
            found = []
            if call["error"] is not None:
                found.append(f"{kind}: raised {call['error']}")
            elif call["exit"] not in (0, 1):
                found.append(f"{kind}: exit {call['exit']}: {call['log'][-500:]}")
            else:
                found += check_artifacts(kind, out, self.expected[kind], self.smoke)
                found += self._check_bytes(kind, out)
                try:
                    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
                    verdicts += len(manifest["verdicts"])
                    verdicts_failed += sum(not v["passed"] for v in manifest["verdicts"])
                except (OSError, ValueError, KeyError) as exc:
                    found.append(f"{kind}: unreadable manifest ({exc!r})")
            failed += bool(found)
            problems += found
        return {
            "run_s": sum(c["run_s"] for c in result["calls"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "attempted": len(self.configs),
            "failed": failed,
            "problems": problems,
            "verdicts": verdicts,
            "verdicts_failed": verdicts_failed,
        }

    def _check_bytes(self, kind: str, out: Path) -> list:
        try:
            got = tuple((out / f).read_bytes() for f in ("results.csv", "summary.json"))
        except OSError as exc:
            return [f"{kind}: missing artifact ({exc!r})"]
        first = self.first_bytes.setdefault(kind, got)
        if got != first:
            return [f"{kind}: artifacts differ from the first iteration of this run"]
        return []


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 reference: dict) -> dict:
    start = time.perf_counter()
    stop_at = start + BUDGET_S
    run = WorkloadRun(name, seed, smoke, reference)
    probes = [run.iteration(-1 - i, False, True, stop_at) for i in range(SETUP_PROBES)]
    iters = []
    while True:
        traced = trace and len(iters) % 2 == 1
        iters.append(run.iteration(len(iters), traced, False, stop_at))
        now = time.perf_counter()
        longest = max(i["wall_s"] for i in iters)
        enough = not trace or any(i["trace"] for i in iters)
        if (enough and now + longest > start + seconds) or now + 1.5 * longest > stop_at:
            break
    # the time left that no iteration fits gives set-up-only processes, so
    # setup_s is a median over more samples
    while not trace and time.perf_counter() + max(p["wall_s"] for p in probes) <= start + seconds:
        probes.append(run.iteration(-1 - len(probes), False, True, stop_at))

    done_iters = [i for i in iters if "run_s" in i]
    plain = [i for i in done_iters if not i["trace"]]
    traced_iters = [i for i in done_iters if i["trace"]]
    setups = [i["setup_s"] for i in probes[1:] + iters if "setup_s" in i]
    problems = [p for i in probes + iters for p in i.get("problems", [])]
    attempted = sum(i["attempted"] for i in iters)
    failed = sum(i["failed"] for i in iters)
    if trace:
        metrics = {}
        if traced_iters:
            keys = traced_iters[0]["layers"]
            metrics = {k: statistics.median(i["layers"][k] for i in traced_iters) for k in keys}
            metrics["trace.run_s"] = statistics.fmean(i["run_s"] for i in traced_iters)
            if plain:
                metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.fmean(
                    i["run_s"] for i in plain
                )
    else:
        metrics = {}
        if plain:
            # the mean over the whole run: a shared host's speed drifts over
            # seconds, and a median of three iterations samples one of them
            metrics["run_s"] = statistics.fmean(i["run_s"] for i in plain)
            # the memory a run needs: the peak of two pool threads' block
            # temporaries overlaps in some processes and not in others
            metrics["peak_rss_mb"] = max(i["peak_rss_mb"] for i in plain)
        if setups:
            metrics["setup_s"] = statistics.median(setups)
    versions = next((i["versions"] for i in probes + iters if "versions" in i), {})
    return {
        "workload": name,
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "verdicts": [(i["verdicts"], i["verdicts_failed"]) for i in done_iters[:1]],
        "samples": {
            "run_s": [i["run_s"] for i in plain],
            "traced_run_s": [i["run_s"] for i in traced_iters],
            "setup_s": setups,
            "peak_rss_mb": [i["peak_rss_mb"] for i in plain],
        },
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            **versions,
            "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
            "threads": THREADS,
            "seed": seed,
            "config_seed": config_seed(seed),
            "smoke": smoke,
        },
    }


def report_lines(rep: dict) -> list:
    name = rep["workload"]
    lines = [f"{name} machine: {json.dumps(rep['machine'], sort_keys=True)}"]
    for metric, value in rep["metrics"].items():
        lines.append(f"{name} {metric}: {value:.6g} {_unit(metric)}")
    for metric, samples in rep["samples"].items():
        if samples:
            lines.append(
                f"{name} {metric} samples: median {statistics.median(samples):.6g}, "
                f"max {max(samples):.6g} {_unit(metric)}, "
                f"n={len(samples)}"
            )
    lines.append(
        f"{name} error_rate: {rep['failed'] / rep['attempted']:.6g} "
        f"({rep['failed']} of {rep['attempted']} calls failed)"
    )
    for total, failed in rep["verdicts"]:
        lines.append(f"{name} program verdicts: {failed} of {total} assertions failed")
    lines += [f"{name} problem: {p}" for p in rep["problems"]]
    return lines


def result_line(reps: list, prefix: bool) -> str:
    metrics = {}
    for rep in reps:
        for metric, value in rep["metrics"].items():
            key = f"{rep['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": _unit(metric)}
    return json.dumps({
        "correct": all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    })


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fracwiener benchmark runner")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced configs for the harness's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fracwiener" / "cli.py").is_file():
        print(f"error: no fracwiener sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        reference = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reps = []
    for name in names:
        rep = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, reference)
        reps.append(rep)
        (WORK / f"report-{name}.json").write_text(json.dumps(rep, indent=1), encoding="utf-8")
        print("\n".join(report_lines(rep)), flush=True)
    print(result_line(reps, prefix=len(reps) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
