#!/usr/bin/env python3
"""Runs the parlis benchmark: builds perfbench from the checkout's sources,
runs one workload (or all four, each in a process of its own), guards its
regime, and prints every metric followed by one JSON result line.

    python3 perfbench/run.py --workload lis_bulk|lis_deep|wlis_bulk|serve_mix|all
                             --seed N --seconds S --trace 0|1 [--corrupt 1]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the current directory; traced runs write their Chrome
trace-event JSON there too. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. --corrupt 1 flips one recorded
answer before it is checked, to show that a wrong answer fails the run.
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BINARY_TIMEOUT_S = 170
SETTLE_AFTER_BUILD_S = 30
REGIME_BAND = re.compile(r"k in \[(\d+), (\d+)\]")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; build output goes to
    stderr so the result line stays last on stdout."""
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        cache.unlink()  # configured from another checkout location
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    compiled = False
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(proc.stdout)
        if proc.returncode != 0:
            fail("build failed: " + " ".join(cmd))
        compiled = compiled or "Linking" in proc.stdout
    if compiled:
        # On the 4-core KVM host, lis_deep measured right after a compile
        # read 2x slower than a minute later; let the host settle first.
        time.sleep(SETTLE_AFTER_BUILD_S)


def provenance(root):
    """git sha when the checkout is a git repository, plus a digest of every
    source file the benchmark builds, which identifies the code either way."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"] + sorted((root / "src").rglob("*")) + sorted(
        p for p in BENCH_DIR.rglob("*") if "__pycache__" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return sha, h.hexdigest()[:16]


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def summarize(rep, spec, trace):
    """Prints one workload's report; returns (metrics for the result line,
    list of problems)."""
    problems = [f"{rep['workload']}: {e}" for e in rep["errors"]]
    by_name = {m["name"]: m for m in rep["metrics"]}
    wl = {w["name"]: w for w in spec["workloads"]}.get(rep["workload"])
    if wl is None:
        problems.append(f"workload {rep['workload']} is not in BENCHMARK.json")
    band = REGIME_BAND.search(wl["why"]) if wl else None
    k = rep["regime"]["k"]
    print(f"== {rep['workload']}  seed={rep['seed']}  trace={rep['trace']}")
    if band:
        lo, hi = int(band.group(1)), int(band.group(2))
        print(f"regime: k={k} (band [{lo}, {hi}])  frontier_p50={rep['regime']['frontier_p50']:g}")
        if not lo <= k <= hi:
            problems.append(f"{rep['workload']}: realized k={k} left its band [{lo}, {hi}]")
    attempted, failed = rep["attempted"], rep["failed"]
    print(f"fail_ratio: {failed / max(attempted, 1):.6g} (base {failed}/{attempted})")
    print("provenance: " + json.dumps(rep["provenance"], sort_keys=True))
    for m in rep["metrics"]:
        n = f"  n={m['samples']}" if m["samples"] else ""
        note = f"  ({m['note']})" if m["note"] else ""
        print(f"  {m['name']:<32} {fmt(m['value']):>14} {m['unit']:<8}{n}{note}")
    if trace:
        print(f"trace file: {rep.get('trace_file') or '(not written)'}"
              f"  dropped spans: {rep.get('dropped_spans', 0)}")
        print(f"  {'layer (span)':<24} {'count':>9} {'total_ms':>12} {'self_ms':>12}")
        for row in rep.get("self_time", []):
            print(f"  {row['layer']:<24} {row['count']:>9} {row['total_ms']:>12.3f}"
                  f" {row['self_ms']:>12.3f}")
    out = {}
    if trace:
        for m in spec["per_layer"]:
            got = by_name.get(m["name"])
            # A layer the workload never calls did no work in it: 0.
            value = got["value"] if got and got["value"] is not None else 0.0
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            got = by_name.get(m["name"])
            if not got or got["value"] is None or got["value"] <= 0:
                problems.append(f"{rep['workload']}: end-to-end metric {m['name']} missing")
                continue
            if got["unit"] != m["unit"]:
                problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
            out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    extra = sorted(n for n in by_name if n not in known)
    if extra:
        print("  (printed only, not in the result line: " + ", ".join(extra) + ")")
    return out, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--corrupt", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found in the current directory")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {names} or all")
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        fail("the library sources (src/, CMakeLists.txt) are not in the current directory")

    build_dir = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    build(build_dir)
    if subprocess.run([str(build_dir / "perfbench_selftest")], cwd=build_dir,
                      stdout=sys.stderr).returncode != 0:
        fail("arithmetic self-test failed")

    sha, digest = provenance(root)
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    reports, problems = [], []
    for wl in names if args.workload == "all" else [args.workload]:
        cmd = [str(build_dir / "perfbench"), "--workload", wl,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--git-sha", sha, "--source-digest", digest,
               "--trace-dir", str(trace_dir)]
        if args.corrupt:
            cmd += ["--corrupt", "1"]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=BINARY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"the benchmark binary exceeded {BINARY_TIMEOUT_S} s on {wl}")
        got = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
        if not got:
            fail(f"the benchmark binary printed no report for {wl} (exit {proc.returncode})")
        reports += got
        if proc.returncode != 0:
            problems.append(f"the benchmark binary exited {proc.returncode} on {wl}")

    metrics = {}
    for rep in reports:
        out, probs = summarize(rep, spec, args.trace == 1)
        problems += probs
        if args.workload == "all":
            out = {f"{rep['workload']}/{k}": v for k, v in out.items()}
        metrics.update(out)
    for p in problems:
        log(f"perfbench: {p}")
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
