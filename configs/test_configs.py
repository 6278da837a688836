"""Every committed config, run end to end through the CLI.

Each ``configs/<name>.cfg`` runs in a fresh interpreter at ``--threads 1``
and at ``--threads 2``, so the operator and mode-norm caches start cold each
time.  The interpreter blocks ``scipy`` before it calls ``cli.main``, so a
run that imports scipy anywhere, lazily included, fails.  The exit code
must be in the config's accepted set, and ``results.csv`` and
``summary.json`` must be the same bytes at both thread counts.  Outside
the Tier-1 testpaths; run with::

    python -m pytest configs
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# the runtime needs numpy only
LAUNCHER = ("import sys; sys.modules['scipy'] = None; "
            "from fracwiener.cli import main; sys.exit(main())")

# exit 1 is a failed in-config verdict; its outputs are still written
ACCEPTED = {
    "iso-fbm-2048": {0},
    "iso-generalized": {0},
    "iso-rosenblatt": {0},
    "moments": {0},
    "norm-identity": {0},
    "norm-identity-long": {0},
    "spde-boundary": {0},
    "spde-boundary-short": {0, 1},
    "spde-boundary-wall": {0, 1},
    "spde-p15": {0, 1},
    "spde-rosenblatt": {0},
    "spde-threads": {0, 1},
    "threshold-sweep": {0},
    "threshold-sweep-m2": {0},
}


def test_every_config_is_run():
    assert set(ACCEPTED) == {p.stem for p in HERE.glob("*.cfg")}


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_config(name, tmp_path):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCHER, "run", str(HERE / f"{name}.cfg"),
             "--threads", str(threads), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode in ACCEPTED[name], proc.stdout + proc.stderr
        outs.append(out)
    for artifact in ("results.csv", "summary.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact
