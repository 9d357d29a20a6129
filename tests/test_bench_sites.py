"""The benchmark's per-layer sites resolve in the program, and a training run
calls each layer of its step.

`bench/spans.py` installs its trace wrappers on the names in `SITES`; a site
the program no longer has fails the traced benchmark. Loading that file here,
unchanged, makes renaming or inlining a layer function fail these tests
first.
"""

import importlib.util
from pathlib import Path

import bandprompt
from bandprompt.teacher import SyntheticSpec, generate_dataset
from bandprompt.trainer import TrainConfig, fit

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# The layers one training step goes through.
STEP_SPANS = ("bank.absorb", "bank.retrieve", "bands.head_graph", "granules.fuse",
              "granules.film", "losses.cls", "losses.sem", "losses.granule",
              "autodiff.backward", "trainer.adam_step")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_site_resolves():
    spans = load_spans()
    with spans.wrapped(bandprompt, lambda name, f: f) as missing:
        assert missing == []


def test_a_training_run_calls_every_step_layer():
    spans = load_spans()
    calls = dict.fromkeys(STEP_SPANS, 0)

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    cache = generate_dataset(SyntheticSpec(num_classes=4, seed=0), n_per_class=8)
    cfg = TrainConfig(embed_dim=8, bank_size=6, batch_size=8, epochs=2, seed=0,
                      bank_refresh=True)
    with spans.wrapped(bandprompt, counting, STEP_SPANS) as missing:
        fit(cache, cfg)
    assert missing == []
    assert all(calls.values()), calls
