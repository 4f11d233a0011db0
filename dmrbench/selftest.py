#!/usr/bin/env python3
"""Self-test of the DMR benchmark at a tiny problem size.

    python3 dmrbench/selftest.py

Runs run.py on every workload of BENCHMARK.json with --size tiny and checks
that:
  1. every metric BENCHMARK.json names is printed with its unit, untraced
     (end-to-end) and traced (per-layer), and the run is correct;
  2. a result deliberately corrupted after the solve (--corrupt state)
     counts as a failed operation and makes the run incorrect;
  3. two different seeds print the same metric names.
Exits 0 when every check holds, 1 otherwise.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, trace, corrupt="none"):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for name in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(name, 1, trace)
            printed = res["metrics"]
            for m in spec[key]:
                got = printed.get(m["name"])
                expect(got is not None and got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       f"{name} trace {trace}: {m['name']} printed in {m['unit']}")
            expect(set(printed) == {m["name"] for m in spec[key]},
                   f"{name} trace {trace}: no metric beyond BENCHMARK.json")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{name} trace {trace}: correct with {res['attempted']} operations")
        other = run(name, 2, 0)
        expect(set(other["metrics"]) == set(run(name, 3, 0)["metrics"]),
               f"{name}: seeds 2 and 3 print the same metric names")
        bad = run(name, 1, 0, corrupt="state")
        expect(bad["failed"] >= 1 and not bad["correct"],
               f"{name}: a corrupted result counts as a failed operation "
               f"({bad['failed']} of {bad['attempted']})")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
