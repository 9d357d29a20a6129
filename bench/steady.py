"""Run the benchmark on ten seeds per workload and report each metric's spread.

    python3 bench/steady.py

Each run is its own untraced `bench/run.py` process with `run_seconds` from
BENCHMARK.json, on seeds 1-10 and every workload of BENCHMARK.json; seeds go
round the workloads so drift of the machine hits every workload alike. For
every workload and end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median,
next to the metric's bound, and the share of failed operations. The raw results go to `bench/out/steady-<time>.json`.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results: dict[str, list[dict]] = {w["name"]: [] for w in spec["workloads"]}
    for seed in SEEDS:
        for w in results:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(line)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in line["metrics"].items()), flush=True)

    print(f"\n{'workload':<11} {'metric':<12} {'median':>9} {'q1':>9} {'q3':>9} "
          f"{'spread':>7} {'bound':>6}  failed")
    for w, lines in results.items():
        failed = sum(r["failed"] for r in lines) / sum(r["attempted"] for r in lines)
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in lines]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"{w:<11} {m['name']:<12} {med:9.4f} {q1:9.4f} {q3:9.4f} "
                  f"{spread:7.3f} {m['bound']:6.2f}  {failed:.4f}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out / f"steady-{stamp}.json").write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
