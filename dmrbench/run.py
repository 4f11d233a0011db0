#!/usr/bin/env python3
"""DMR time-to-solution benchmark.

Builds the solver library and the workload runner from the sources of this
checkout into .bench_build/dmrbench, runs one workload in its own process,
checks its outputs, and prints one JSON result line last:

    python3 dmrbench/run.py --workload dmr_steady --seed 1 --seconds 30 --trace 0

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Human-readable lines before the
result give the environment, every output check, and each metric with its
unit and kind (measured wall time, measured and scaled to the reference
host speed, exact count, or modeled).
--size tiny and --corrupt state exist for selftest.py.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "dmrbench"
BINARY = BUILD_DIR / "dmr_bench"


def fail(msg, code):
    print(f"dmrbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}", 2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j", jobs], timeout=850)
    if not BINARY.exists():
        fail("build produced no dmr_bench binary", 2)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", choices=("none", "state"), default="none")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}", 2)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()

    out_dir = BUILD_DIR / "out"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir), "--size", args.size, "--corrupt", args.corrupt]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("workload runner timed out", 4)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"workload runner exited with {proc.returncode}", 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("workload runner printed no report", 4)

    got = {m["name"]: m for m in report["metrics"]}
    for m in wanted:
        g = got.get(m["name"])
        if g is None:
            fail(f"metric {m['name']} missing from the report", 5)
        if g["unit"] != m["unit"]:
            fail(f"metric {m['name']} reported in {g['unit']}, expected {m['unit']}", 5)
        if not isinstance(g["value"], (int, float)) or not math.isfinite(g["value"]):
            fail(f"metric {m['name']} has no finite value", 5)

    attempted = int(report["attempted"])
    failed = int(report["failed"])
    env = dict(report["env"])
    env.update({"nproc": os.cpu_count(), "git_sha": git_sha(),
                "runner_wall_s": round(time.monotonic() - started, 3)})
    print(f"dmrbench {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        print(f"step_tail_s is p{env['tail_percentile']} of {env['step_samples']} "
              f"step samples")
    for c in report["checks"]:
        verdict = "ok" if c["failed"] == 0 else "FAILED"
        print(f"check {c['name']}: {c['runs'] - c['failed']}/{c['runs']} passed "
              f"(worst {c['worst']}, limit {c['limit']}) {verdict}")
    share = failed / attempted if attempted else 1.0
    print(f"ops_failed_share {failed}/{attempted} = {share:.6g}")
    for m in wanted:
        g = got[m["name"]]
        print(f"metric {m['name']} = {g['value']!r} {g['unit']} [{g['kind']}]")
    listed = {m["name"] for m in wanted}
    for name, g in got.items():
        if name not in listed:
            print(f"info {name} = {g['value']!r} {g['unit']} [{g['kind']}] "
                  f"(not in BENCHMARK.json)")

    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": got[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
