"""Every benchmark workload runs and passes its own checks at toy size.

`bench/workloads.py` drives the program through its public names (cache
records and their latent arrays, `LatentCache`, `run_base_to_novel`'s
output, the text rows, one band split per latent in `diagnose`). Running
each workload's set-up, observed operation and check here, with the
benchmark files unchanged, makes a change to any of them fail tier-1 before
it fails the benchmark.
"""

import sys
from pathlib import Path

import pytest

import bandprompt

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks_at_toy_size(name, tmp_path):
    wl = workloads.WORKLOADS[name]("toy")
    ctx = wl.setup(bandprompt, 0, str(tmp_path))
    out, problems = wl.observe(bandprompt, ctx)
    more, fingerprint = wl.check(bandprompt, ctx, out)
    assert problems + more == []
    assert fingerprint
