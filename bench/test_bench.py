"""Tests of the benchmark itself: every checker rejects a wrong output, and
every workload runs once at toy size, traced and untraced.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@dataclass(frozen=True)
class Result:
    base_acc: float
    novel_acc: float
    hm: float
    base_count: int
    novel_count: int


GOOD = Result(base_acc=90.0, novel_acc=60.0, hm=72.0, base_count=768, novel_count=768)


def test_protocol_accepts_consistent_result():
    assert checks.protocol_problems(GOOD, 32, 64, 16) == []


@pytest.mark.parametrize("wrong", [
    replace(GOOD, hm=75.0),                       # not 2bn/(b+n)
    replace(GOOD, base_count=767),                # not 16 x (64 - 16)
    replace(GOOD, novel_count=784),
    replace(GOOD, novel_acc=12.0, hm=2 * 90 * 12 / 102),  # under 3 x chance (18.75 %)
])
def test_protocol_rejects(wrong):
    assert checks.protocol_problems(wrong, 32, 64, 16)


def test_bitwise_rejects_one_ulp_and_missing_key():
    a = {"w": np.array([1.0, 2.0])}
    assert checks.bitwise_problems("p", a, {"w": np.array([1.0, 2.0])}) == []
    assert checks.bitwise_problems("p", a, {"w": np.array([1.0, np.nextafter(2.0, 3.0)])})
    assert checks.bitwise_problems("p", a, {"v": np.array([1.0, 2.0])})


def test_cache_rejects_changed_record_and_file_size_matches_layout():
    z = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    written = [("c000_s00000", 0, z), ("c000_s00001", 0, z + 1)]
    assert checks.cache_problems(written, written) == []
    flipped = z.copy()
    flipped.view(np.uint32)[1, 1, 1] ^= 1
    assert checks.cache_problems(written, [written[0], ("c000_s00001", 0, flipped)])
    assert checks.cache_problems(written, [written[0], ("c000_s00001", 1, z + 1)])
    assert checks.cache_file_bytes(written) == 12 + 2 * (2 + 11 + 16 + 32)


def test_split_rejects_one_ulp():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(2, 8, 8)).astype(np.float32)
    base = checks.box_mean(z, 3).astype(np.float32).astype(np.float64)
    detail = z.astype(np.float64) - base
    assert checks.split_problems(z, base, detail) == []
    assert checks.box_base_problems(z, base, 3) == []
    detail[0, 3, 3] = np.nextafter(detail[0, 3, 3], 1.0)
    assert checks.split_problems(z, base, detail)


def test_box_base_rejects_wrong_kernel():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(2, 8, 8)).astype(np.float32)
    base = checks.box_mean(z, 5).astype(np.float32).astype(np.float64)
    assert checks.box_base_problems(z, base, 3)


def test_overlaps_reject_out_of_range_and_skips():
    ok = np.array([0.002, 0.003])
    assert checks.overlap_problems(ok, 0, 2) == []
    assert checks.overlap_problems(np.array([0.002, 1.0 + 1e-12]), 0, 2)
    assert checks.overlap_problems(np.array([0.002]), 1, 2)


def _bands(seed=2):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 16, 16))
    base = checks.box_mean(z, 7)
    return base, z - base


def test_area_weights_preserve_means():
    w = checks.area_weights(16, 14)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert np.allclose(w.sum(axis=0), 14 / 16)


def test_spectrum_accepts_reference_and_rejects_perturbation():
    base, detail = _bands()
    eb = checks.radial_energies(checks.aligned(base, (14, 14)), 10)
    ed = checks.radial_energies(checks.aligned(detail, (14, 14)), 10)
    assert np.isclose(eb.sum(), 1.0) and np.isclose(ed.sum(), 1.0)
    overlap = float(np.minimum(eb, ed).sum())
    assert checks.spectrum_problems(base, detail, (14, 14), 10, eb, ed, overlap) == []
    bumped = eb.copy()
    bumped[3] += 1e-6
    assert checks.spectrum_problems(base, detail, (14, 14), 10, bumped, ed, overlap)
    assert checks.spectrum_problems(base, detail, (14, 14), 10, eb, ed, overlap + 1e-6)


def _scored(seed=3):
    rng = np.random.default_rng(seed)
    latents = rng.normal(size=(40, 2, 4, 4)).astype(np.float32)
    weight = rng.normal(size=(6, 32))
    rows = rng.normal(size=(5, 6))
    v = checks.unit_rows(latents.reshape(40, -1).astype(np.float64) @ weight.T)
    pred = np.argmax(v @ rows.T, axis=1)
    labels = pred.copy()
    labels[:4] = (labels[:4] + 1) % 5
    return latents, weight, rows, labels, pred


def test_predictions_accept_argmax_and_reject_a_flip():
    latents, weight, rows, labels, pred = _scored()
    acc = 100.0 * float(np.mean(pred == labels))
    assert checks.prediction_problems(latents, weight, rows, labels, pred, acc) == []
    flipped = pred.copy()
    flipped[10] = (flipped[10] + 1) % 5
    assert checks.prediction_problems(latents, weight, rows, labels, flipped,
                                      100.0 * float(np.mean(flipped == labels)))
    assert checks.prediction_problems(latents, weight, rows, labels, pred, acc + 2.5)


def test_reachable_nodes_counts_shared_parents_once():
    class Node:
        def __init__(self, *parents):
            self._parents = parents

    leaf = Node()
    a = Node(leaf, leaf)
    root = Node(a, Node(a, leaf))
    assert spans.reachable_nodes(root) == 4


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.begin("op")
    tracer._open("outer")
    tracer._open("inner")
    tracer._close()
    tracer._close()
    tracer.end(1.0)
    self_s = tracer.self_s["op"]
    assert set(self_s) == {"op", "outer", "inner"}
    assert all(v >= 0.0 for v in self_s.values())
    assert [s[0] for s in tracer.kept["op"]] == ["op", "outer", "inner"]
    assert [s[3] for s in tracer.kept["op"]] == [-1, 0, 1]


def test_wrappers_cover_every_site_and_are_removed():
    bp = run.import_program()
    refine = sys.modules["bandprompt.refine"]
    original, step = refine.retrieve_rows, bp.trainer.Adam.__dict__["step"]
    with spans.wrapped(bp, lambda name, fn: lambda *a, **k: fn(*a, **k)) as missing:
        assert missing == []
        assert refine.retrieve_rows is not original
        assert bp.trainer.Adam.__dict__["step"] is not step
    assert refine.retrieve_rows is original and bp.trainer.Adam.__dict__["step"] is step


def test_traced_run_fails_when_a_trace_site_is_gone(monkeypatch):
    monkeypatch.setitem(spans.SITES, "diagnostics.align_grid", [("diagnostics", "no_such_name")])
    result = run.measure("b2n-train", seed=0, seconds=0.0, trace=True, size="toy")
    assert not result["correct"] and result["failed"] == 1


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(workload, trace):
    result = run.measure(workload, seed=0, seconds=0.0, trace=trace, size="toy")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(result["metrics"][k]["unit"] == units[k] for k in wanted)
