"""Every demo script runs to completion against the current package.

Each runs as its own process from an empty working directory, with
RuntimeWarnings as errors as in the in-process tests, and must print
something and leave nothing behind. Demos 04 (training and the gradient
audit) and 06 (the base-to-novel protocol) take a few seconds each.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
    assert list(tmp_path.iterdir()) == []  # demos leave nothing behind
