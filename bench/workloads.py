"""The two workloads: set-up, one operation, and the checks of its output.

Each workload is a closed loop in one process and one thread: the harness
runs one operation after another on inputs made once from the seed. Every
call into the program goes through a module attribute (`bp.teacher.…`,
`bp.trainer.…`) so that trace wrappers installed there see it.

`observe` runs the first, untimed operation with extra wrappers that look
inside it (every band split); `check` runs on every operation
and returns the problems plus a fingerprint that later operations of the
same run must reproduce bitwise.
"""

from __future__ import annotations

import os

import numpy as np

import checks
import spans


def _cache(bp, seed: int, classes: int, per_class: int, path: str):
    """Generate, write and re-read a synthetic cache through `teacher`."""
    spec = bp.teacher.SyntheticSpec(num_classes=classes, seed=seed)
    bp.teacher.write_cache(bp.teacher.generate_dataset(spec, per_class), path)
    return bp.teacher.read_cache(path)


def _records(cache):
    return [(r.sample_id, r.class_label, r.latent.data) for r in cache.records]


class Workload:
    name = ""
    sizes: dict = {}
    setup_reps = 5

    def __init__(self, size: str = "full"):
        self.size = self.sizes[size]

    def setup(self, bp, seed: int, work: str) -> dict:
        raise NotImplementedError

    def op(self, bp, ctx: dict):
        raise NotImplementedError

    def observe(self, bp, ctx: dict):
        return self.op(bp, ctx), []

    def check(self, bp, ctx: dict, out) -> tuple[list[str], dict]:
        raise NotImplementedError


class B2NTrain(Workload):
    """`run_base_to_novel` with base-val selection and bank refresh."""

    name = "b2n-train"
    sizes = {
        "full": dict(classes=32, per_class=64, embed_dim=32, shots=16, epochs=30, chance_x=3.0),
        "toy": dict(classes=8, per_class=32, embed_dim=8, shots=16, epochs=30, chance_x=2.0),
    }

    def setup(self, bp, seed, work):
        s = self.size
        cache = _cache(bp, seed, s["classes"], s["per_class"], os.path.join(work, "b2n.bin"))
        cfg = bp.trainer.TrainConfig(embed_dim=s["embed_dim"], epochs=s["epochs"],
                                     bank_refresh=True, seed=seed)
        return {"cache": cache, "cfg": cfg}

    def op(self, bp, ctx):
        return bp.evaluate.run_base_to_novel(ctx["cache"], ctx["cfg"], shots=self.size["shots"],
                                             select_by_base_val=True)

    def check(self, bp, ctx, out):
        s = self.size
        problems = checks.protocol_problems(out.result, s["classes"], s["per_class"], s["shots"],
                                            s["chance_x"])
        fingerprint = {**out.state.param_values(), "bank.entries": out.state.bank.entries}
        return problems, fingerprint


class CacheScan(Workload):
    """Cache write/read, spectral diagnosis and checkpoint scoring: no tape."""

    name = "cache-scan"
    sizes = {
        "full": dict(classes=8, per_class=256, fit_per_class=32, epochs=10, samples=8),
        "toy": dict(classes=4, per_class=16, fit_per_class=8, epochs=10, samples=4),
    }
    setup_reps = 3
    align = (14, 14)
    bins = 10

    def setup(self, bp, seed, work):
        s = self.size
        cache = _cache(bp, seed, s["classes"], s["per_class"], os.path.join(work, "scan-setup.bin"))
        taken: dict[int, int] = {}
        subset = []
        for record in cache.records:
            if taken.get(record.class_label, 0) < s["fit_per_class"]:
                taken[record.class_label] = taken.get(record.class_label, 0) + 1
                subset.append(record)
        cfg = bp.trainer.TrainConfig(epochs=s["epochs"], seed=seed)
        state = bp.trainer.fit(bp.teacher.LatentCache(subset), cfg)
        checkpoint = os.path.join(work, "scan.ckpt")
        bp.trainer.save_checkpoint(checkpoint, state)
        trained = {**state.param_values(), "bank.entries": state.bank.entries.copy()}
        rng = np.random.default_rng([seed, 0x5CA])
        sample = np.sort(rng.choice(len(cache), size=s["samples"], replace=False))
        return {"cache": cache, "cfg": cfg, "checkpoint": checkpoint, "trained": trained,
                "path": os.path.join(work, "scan.bin"), "sample": sample}

    def op(self, bp, ctx):
        cfg = ctx["cfg"]
        bp.teacher.write_cache(ctx["cache"], ctx["path"])
        cache = bp.teacher.read_cache(ctx["path"])
        report = bp.diagnostics.diagnose(cache, kernel=cfg.kernel, num_bins=self.bins,
                                         align=self.align)
        _, params, bank = bp.trainer.load_checkpoint(ctx["checkpoint"])
        encoder = bp.trainer.ToyVisualEncoder.create(cfg.embed_dim, cache.grid, cfg.seed)
        state = bp.trainer.state_from_values(params, bank, encoder, cfg)
        text = state.text_features(cfg)
        _, pred = bp.evaluate.predict(encoder.encode_batch(cache.arrays()), text, cfg.logit_scale)
        acc = bp.evaluate.accuracy_percent(pred, cache.labels())
        return {"cache": cache, "report": report, "params": params, "bank": bank,
                "encoder": encoder, "rows": text.mixed, "pred": pred, "acc": acc}

    def observe(self, bp, ctx):
        problems = []
        seen = []

        def make(name, original):
            def factorize(*args, **kwargs):
                pair = original(*args, **kwargs)
                seen.append(1)
                problems.extend(checks.split_problems(args[0], pair.base, pair.detail))
                return pair
            return factorize

        with spans.wrapped(bp, make, ["bands.factorize"]):
            out = self.op(bp, ctx)
        problems += checks.count_problems("band splits checked", len(seen), len(ctx["cache"]))
        return out, problems[:5]

    def check(self, bp, ctx, out):
        cfg = ctx["cfg"]
        written, read = _records(ctx["cache"]), _records(out["cache"])
        problems = checks.cache_problems(written, read)
        problems += checks.count_problems("cache file bytes", os.path.getsize(ctx["path"]),
                                          checks.cache_file_bytes(written))
        report = out["report"]
        problems += checks.overlap_problems(report.overlaps, report.skipped_count, len(read))
        if not problems:
            for i in ctx["sample"]:
                z = read[i][2]
                pair = bp.bands.factorize(z, cfg.kernel)
                spectra = [bp.diagnostics.radial_spectrum(
                    bp.diagnostics.align_grid(band, self.align), self.bins).energies
                    for band in (pair.base, pair.detail)]
                problems += checks.box_base_problems(z, pair.base, cfg.kernel)
                problems += checks.spectrum_problems(pair.base, pair.detail, self.align, self.bins,
                                                     *spectra, report.overlaps[i])
        problems += checks.prediction_problems(out["cache"].arrays(), out["encoder"].weight,
                                               out["rows"], out["cache"].labels(),
                                               out["pred"], out["acc"])
        problems += checks.bitwise_problems("checkpoint round trip", ctx["trained"],
                                            {**out["params"], "bank.entries": out["bank"].entries})
        fingerprint = {"overlaps": report.overlaps, "mean_base": report.mean_base,
                       "mean_detail": report.mean_detail, "pred": out["pred"]}
        return problems, fingerprint


WORKLOADS = {w.name: w for w in (B2NTrain, CacheScan)}
