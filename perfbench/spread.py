"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads construct scan pipeline --seeds 10

Runs run.py once per (workload, seed), each in a fresh process, one after
another, and prints for every metric the median over seeds and the distance
between the first and third quartiles as a share of that median, next to
the bound from BENCHMARK.json.  All results go to perfbench/out/spread.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["construct", "scan", "pipeline"])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results: dict = {}
    for w in args.workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            out = json.loads(done.stdout.strip().splitlines()[-1])
            results.setdefault(w, []).append({"seed": seed, **out})
            print(w, seed, out["correct"], out["attempted"], out["failed"],
                  {k: round(v["value"], 5) for k, v in out["metrics"].items()}, flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(results))
    for w, runs in results.items():
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{w:9s} {name:28s} median {med:12.6g}  spread {spread:7.4f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
