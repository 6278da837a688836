"""Record the deterministic columns of every workload into reference.json.

Run from the repository root on the commit whose numbers are the
reference:

    python3 perfbench/record_reference.py

It runs each workload's full-size configs once per config seed through
``fracwiener.cli.main`` and stores the cells that ``workloads.COLUMNS``
names.  This takes about ten minutes on a 2-core box.  A change that
alters a deterministic column on purpose records the values again.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from workloads import BLAS_ENV, CONFIG_SEEDS, REFERENCE_FILE, THREADS, WORKLOADS, read_artifacts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from fracwiener import cli

    work = HERE / "_work" / "record"
    values = {}
    for w in WORKLOADS.values():
        per_seed = values[w.name] = {}
        for seed in range(CONFIG_SEEDS):
            per_seed[str(seed)] = {}
            for cfg in w.configs:
                out = work / w.name / cfg.kind
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir(parents=True)
                (out / "run.cfg").write_text(cfg.text(seed), encoding="utf-8")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", str(out / "run.cfg"), "--threads", str(THREADS),
                                     "--out", str(out)])
                if code not in (0, 1):
                    print(f"{w.name} seed {seed} {cfg.kind}: exit {code}", file=sys.stderr)
                    return 1
                got = read_artifacts(cfg.kind, out)
                per_seed[str(seed)][cfg.kind] = {"rows": got["rows"], "summary": got["summary"]}
            print(f"{w.name} seed {seed} recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
