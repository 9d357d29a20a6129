"""Benchmark of bandprompt: one workload per process, one BLAS thread.

    python3 bench/run.py --workload b2n-train --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

Run from anywhere; the program is imported from `src/` beside this
directory. With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics `op_s`, `setup_s` and `peak_rss_mb`;
with `--trace 1` it carries the per-layer metrics instead (see README.md).
Details of each run (every repetition's time, the trace tables and the raw
spans of one set-up and one operation) go to `bench/out/`.
`--smoke` runs every workload once at toy size, traced and untraced.
"""

import os

# Before numpy loads: OpenBLAS would otherwise run a second busy thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from timing import Calibrator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TMP = BENCH / "tmp"
MIB = 1024.0 * 1024.0


class NoProgram(Exception):
    pass


def import_program():
    if not (SRC / "bandprompt" / "__init__.py").is_file():
        raise NoProgram(f"no program at {SRC / 'bandprompt'}")
    sys.path.insert(0, str(SRC))
    bp = importlib.import_module("bandprompt")
    if Path(bp.__file__).resolve().parent != SRC / "bandprompt":
        raise NoProgram(f"imported bandprompt from {bp.__file__}, not from {SRC}")
    return bp


def _say(*lines):
    for line in lines:
        print(f"bench: {line}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One run: import, set-ups, a checked warm-up, then timed operations for
    `seconds`. Returns the result object plus a `details` entry."""
    wl = WORKLOADS[workload](size)
    TMP.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP)
    try:
        with Calibrator() as clock:
            result = _run(wl, clock, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["details"].update(workload=workload, seed=seed, seconds=seconds, size=size)
    return result


def _run(wl, clock, seed, seconds, trace, work) -> dict:
    bp, import_s, _ = clock.time(import_program)
    tracer = spans.Tracer(clock.now) if trace else None

    def traced():
        return spans.wrapped(bp, tracer.make_wrapper) if tracer else contextlib.nullcontext([])

    setup_times = []
    with traced() as missing:
        for _ in range(wl.setup_reps):
            ctx = None  # the previous set-up's data would add to the peak RSS
            if tracer:
                tracer.begin("setup")
            ctx, t, factor = clock.time(wl.setup, bp, seed, work)
            if tracer:
                tracer.end(factor)
            setup_times.append(t)

    out, problems = wl.observe(bp, ctx)
    more, reference = wl.check(bp, ctx, out)
    problems += more
    if missing:
        # A layer whose sites are gone would read 0, which looks like a gain.
        problems.append(f"trace sites not found in the program: {', '.join(missing)}")
    attempted, failed, correct = 1, 0, True
    if problems:
        failed, correct = 1, False
        _say(f"{wl.name} warm-up:", *problems)

    op_times, op_factors = [], []
    deadline = time.perf_counter() + seconds
    with traced():
        while True:
            attempted += 1
            out = None  # the previous output would add to the peak RSS
            if tracer:
                tracer.begin("op")
            try:
                out, t, factor = clock.time(wl.op, bp, ctx)
            except Exception:
                if tracer:
                    tracer.end(1.0)
                failed += 1
                _say(f"{wl.name} operation {attempted} raised:", traceback.format_exc())
            else:
                if tracer:
                    tracer.end(factor)
                op_times.append(t)
                op_factors.append(factor)
                problems, fingerprint = wl.check(bp, ctx, out)
                problems += checks.bitwise_problems("repeat of the warm-up", reference, fingerprint)
                if problems:
                    failed += 1
                    correct = False
                    _say(f"{wl.name} operation {attempted}:", *problems)
            if time.perf_counter() >= deadline:
                break

    op_s = statistics.median(op_times) if op_times else float("nan")
    details = {
        "trace": int(trace), "op_s": op_s, "op_times": op_times, "op_factors": op_factors,
        "import_s": import_s, "setup_times": setup_times,
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }
    if tracer:
        tracemalloc.start()
        wl.op(bp, ctx)
        py_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in tracer.metrics().items()}
        metrics["mem.py_peak_mb"] = {"value": py_peak / MIB, "unit": "MiB"}
        details["spans"] = tracer.report()
    else:
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
            "details": details}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("teacher.bytes"):
        return "B"
    return "count"


def write_details(result: dict) -> None:
    d = result["details"]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{d['workload']}-seed{d['seed']}-trace{d['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def smoke() -> int:
    """Every workload once at toy size, untraced and traced."""
    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, seed=0, seconds=0.0, trace=trace, size="toy")
            ok = result["correct"] and result["failed"] == 0
            bad += not ok
            print(f"{name} trace={int(trace)}: {'ok' if ok else 'FAILED'} "
                  f"({result['attempted']} operations, op {result['details']['op_s']:.3f} s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once at toy size")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoProgram as exc:
        _say(str(exc))
        return 2
    write_details(result)
    d = result["details"]
    _say(f"{args.workload} seed {args.seed}: {len(d['op_times'])} timed operations, "
         f"op {d['op_s']:.4f} s, threads {d['threads']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
