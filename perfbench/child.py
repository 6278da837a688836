"""One benchmark run process: set up, then call ``fracwiener.cli.main``.

Usage: ``python3 perfbench/child.py JOB.json``, started by ``run.py``.
The job names the config files, their output directories, the thread
count, whether to trace or only to set up, the parent's clock reading just before the
start, and where to write the result.  Set-up ends once
``fracwiener.cli`` is imported and every config is loaded; each
``cli.main`` call is then timed on its own.  The result is written once,
at the end, and holds the set-up time, the per-call times and exit codes,
the peak RSS of this process, the versions in use, and the spans of a
traced run.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import threading
import time


def _exit_with_parent(parent: int):
    # a run.py stopped by a signal cannot reap this process; end it here
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def main(job_path: str) -> int:
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from fracwiener import cli
    from fracwiener.experiments import load_config

    for call in job["calls"]:
        load_config(call["config"])
    ready = time.perf_counter()

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    for call in [] if job["setup_only"] else job["calls"]:
        argv = ["run", call["config"], "--threads", str(job["threads"]), "--out", call["out"]]
        log = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash of the program is a failed call
            code, error = None, repr(exc)
        end = time.perf_counter()
        calls.append({"exit": code, "error": error, "run_s": end - start, "log": log.getvalue()})

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    result = {
        "setup_s": ready - job["spawned"],
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if tracer is not None:
        result["main_tid"] = threading.get_ident()
        result["spans"] = tracer.records()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
