"""Per-layer spans and counts, recorded from outside the program.

Each layer boundary is a public function of `bandprompt`. A wrapper is
installed on every name where a caller looks that function up (the module
global the caller's code reads, or the class attribute for a method) and
removed afterwards, so no file of the program changes. A span records name,
start, end and parent; a layer's self time is its span's duration minus its
children's. Self times and counts are aggregated as spans close; the raw
spans of one set-up and one operation are kept for the trace file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time

# span name -> the (module, attribute) sites its callers look it up at.
# A module of "trainer.Adam" means the class `Adam` in `bandprompt.trainer`.
SITES = {
    "teacher.generate": [("teacher", "generate_dataset")],
    "teacher.write": [("teacher", "write_cache")],
    "teacher.read": [("teacher", "read_cache")],
    "bands.factorize": [("trainer", "factorize"), ("diagnostics", "factorize")],
    "bands.head_graph": [("trainer", "head_graph"), ("evaluate", "head_graph")],
    "bank.absorb": [("trainer", "absorb")],
    "bank.retrieve": [("refine", "retrieve_rows")],
    "refine.refined_text": [("trainer", "refined_text_graph"), ("refine", "refined_text_graph")],
    "granules.fuse": [("trainer", "fuse_rows"), ("evaluate", "fuse_rows")],
    "granules.film": [("trainer", "film_rows"), ("evaluate", "film_rows")],
    "losses.cls": [("trainer", "loss_cls")],
    "losses.sem": [("trainer", "loss_sem")],
    "losses.granule": [("trainer", "loss_granule")],
    "autodiff.backward": [("autodiff", "backward")],
    "trainer.forward_batch": [("trainer", "forward_batch")],
    "trainer.adam_step": [("trainer.Adam", "step")],
    "trainer.compute_features": [("trainer", "compute_features"), ("evaluate", "compute_features")],
    "trainer.load_checkpoint": [("trainer", "load_checkpoint")],
    "evaluate.predict": [("evaluate", "predict")],
    "diagnostics.align_grid": [("diagnostics", "align_grid")],
    "diagnostics.radial_spectrum": [("diagnostics", "radial_spectrum")],
}

TIME_METRICS = {
    "teacher.generate_s": "teacher.generate",
    "teacher.write_s": "teacher.write",
    "teacher.read_s": "teacher.read",
    "bands.factorize_s": "bands.factorize",
    "bands.head_graph_s": "bands.head_graph",
    "bank.absorb_s": "bank.absorb",
    "bank.retrieve_s": "bank.retrieve",
    "refine.refined_text_s": "refine.refined_text",
    "granules.fuse_s": "granules.fuse",
    "granules.film_s": "granules.film",
    "losses.cls_s": "losses.cls",
    "losses.sem_s": "losses.sem",
    "losses.granule_s": "losses.granule",
    "autodiff.backward_s": "autodiff.backward",
    "trainer.forward_batch_s": "trainer.forward_batch",
    "trainer.adam_step_s": "trainer.adam_step",
    "trainer.compute_features_s": "trainer.compute_features",
    "trainer.load_checkpoint_s": "trainer.load_checkpoint",
    "evaluate.predict_s": "evaluate.predict",
    "diagnostics.align_grid_s": "diagnostics.align_grid",
    "diagnostics.radial_spectrum_s": "diagnostics.radial_spectrum",
}

CALL_METRICS = {
    "bands.factorize_calls": "bands.factorize",
    "bank.absorb_calls": "bank.absorb",
    "trainer.steps": "trainer.adam_step",
    "trainer.forward_calls": "trainer.forward_batch",
    "evaluate.predict_calls": "evaluate.predict",
    "diagnostics.align_grid_calls": "diagnostics.align_grid",
}


def _resolve(bp, site: str):
    # By module name: the package namespace is no guide, since
    # `bandprompt.refine` there is the function `refine.refine`.
    module, _, cls = site.partition(".")
    obj = importlib.import_module(f"{bp.__name__}.{module}")
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def wrapped(bp, make_wrapper, names=None):
    """Install `make_wrapper(span_name, original)` on every site of the named
    spans (all spans by default) and restore the originals on exit.

    A site the program no longer has is skipped. Yields the list of skipped
    sites; the caller must treat a non-empty list as a failure, since the
    layer would read 0.
    """
    saved = []
    missing = []
    try:
        for name in names or SITES:
            for module, attr in SITES[name]:
                try:
                    owner = _resolve(bp, module)
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (AttributeError, KeyError, ImportError):
                    missing.append(f"{module}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(name, original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def reachable_nodes(root) -> int:
    """Distinct tensors reachable from `root` through parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _path_arg(args, kwargs, pos: int):
    return kwargs.get("path", args[pos] if len(args) > pos else None)


class Tracer:
    """Nested spans, self time and counts, per phase ("setup" or "op").

    `begin(phase)` opens a root span for one set-up or operation and
    `end(factor)` closes it; `factor` is that repetition's calibration factor
    and scales its times. `now` is the clock spans are read from.
    """

    def __init__(self, now=time.perf_counter):
        self._now = now
        self.self_s = {"setup": {}, "op": {}}
        self.calls = {"setup": {}, "op": {}}
        self.counts = {"setup": {}, "op": {}}
        self.reps = {"setup": 0, "op": 0}
        self.kept = {}  # phase -> raw spans of the first repetition
        self._stack = []
        self._rep_self = {}
        self._spans = None
        self._phase = None

    # -- repetitions --------------------------------------------------------

    def begin(self, phase: str):
        self._phase = phase
        self._spans = [] if phase not in self.kept else None
        self._open(phase)

    def end(self, factor: float):
        self._close()
        phase = self._phase
        self.reps[phase] += 1
        for name, s in self._rep_self.items():
            self.self_s[phase][name] = self.self_s[phase].get(name, 0.0) + s * factor
        if self._spans is not None:
            self.kept[phase] = self._spans
        self._phase = None

    # -- spans --------------------------------------------------------------

    def _open(self, name: str):
        if not self._stack:
            self._rep_self = {}
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        start = self._now()
        if self._spans is not None:
            index = len(self._spans)
            self._spans.append([name, start, None, parent])
        self._stack.append([name, start, 0.0, index])

    def _close(self):
        name, start, child, index = self._stack.pop()
        end = self._now()
        duration = end - start
        self._rep_self[name] = self._rep_self.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self._spans[index][2] = end

    def _count(self, key: str, n: int = 1):
        table = self.counts[self._phase]
        table[key] = table.get(key, 0) + n

    # -- wrappers -----------------------------------------------------------

    def make_wrapper(self, name, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._phase is None:
                return original(*args, **kwargs)
            calls = tracer.calls[tracer._phase]
            calls[name] = calls.get(name, 0) + 1
            if name == "teacher.read":
                tracer._count("teacher.bytes_read", os.path.getsize(_path_arg(args, kwargs, 0)))
            elif name == "autodiff.backward":
                tracer._count("autodiff.backward_nodes", reachable_nodes(args[0]))
            tracer._open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._close()
            if name == "teacher.write":
                tracer._count("teacher.bytes_written", os.path.getsize(_path_arg(args, kwargs, 1)))
            elif name == "trainer.forward_batch":
                tracer._count("autodiff.forward_nodes", reachable_nodes(out[0]))
            return out

        return wrapper

    # -- results ------------------------------------------------------------

    def _per_rep(self, table: str, key: str) -> float:
        """Per set-up plus per operation."""
        total = 0.0
        for phase in ("setup", "op"):
            if self.reps[phase]:
                total += getattr(self, table)[phase].get(key, 0) / self.reps[phase]
        return total

    def _ratio(self, count_key: str, call_key: str) -> float:
        counts = sum(self.counts[p].get(count_key, 0) for p in ("setup", "op"))
        calls = sum(self.calls[p].get(call_key, 0) for p in ("setup", "op"))
        return counts / calls if calls else 0.0

    def metrics(self) -> dict[str, float]:
        out = {m: self._per_rep("self_s", span) for m, span in TIME_METRICS.items()}
        out["teacher.bytes_written"] = self._per_rep("counts", "teacher.bytes_written")
        out["teacher.bytes_read"] = self._per_rep("counts", "teacher.bytes_read")
        out.update({m: self._per_rep("calls", span) for m, span in CALL_METRICS.items()})
        out["autodiff.nodes_per_backward"] = self._ratio("autodiff.backward_nodes", "autodiff.backward")
        out["autodiff.nodes_per_forward"] = self._ratio("autodiff.forward_nodes", "trainer.forward_batch")
        return out

    def report(self) -> dict:
        """Everything the trace file holds: per-phase tables and kept spans."""
        return {
            "reps": self.reps,
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": self.counts,
            "spans": {phase: [{"name": n, "start": s, "end": e, "parent": p}
                              for n, s, e, p in spans]
                      for phase, spans in self.kept.items()},
        }
