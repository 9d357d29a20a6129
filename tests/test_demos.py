"""The quick demo scripts run to completion against the current package.

Each runs as its own process from an empty working directory. Demos 04 and
06 take several seconds each; the training, gradient-check and protocol paths
they narrate are covered by the trainer, evaluate and acceptance tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ("01_latent_cache.py", "02_band_factorization.py",
               "03_bank_and_refinement.py", "05_spectral_report.py")


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
    assert list(tmp_path.iterdir()) == []  # demos leave nothing behind
