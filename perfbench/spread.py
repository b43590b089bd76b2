#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs perfbench/run.py once
per seed on each workload and prints, per metric, the median and the
interquartile distance as a share of the median, next to the metric's bound
in BENCHMARK.json (the benchmark is steady when every spread stays below its
bound). Seeds start at 1; each run measures BENCHMARK.json's run_seconds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10]

Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).parent / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
                sys.exit(1)
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"== {wl} ({args.seeds} seeds)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] else "  OVER BOUND"
            steady = steady and not flag
            print(f"  {name:<16} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {bounds[name]:.3f}{flag}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in vals))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
