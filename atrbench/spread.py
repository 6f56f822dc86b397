#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 atrbench/spread.py --runs 10 gas-facebook baseplus-pokec

Runs each named workload (all of them by default) once per seed 1..runs,
untraced, and prints each run's wall time and metrics; then, for every
metric, the median of the runs and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median, beside a third of the metric's bound from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values = {}
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            start = time.monotonic()
            res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.monotonic() - start
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {res.returncode}")
                ok = False
                continue
            out = json.loads(lines[-1])
            if not out["correct"] or out["failed"]:
                print(f"{name} seed {seed}: incorrect output")
                ok = False
            for k, v in out["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            metrics = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
            print(f"{name} seed {seed} ({wall:.0f} s): {metrics}", flush=True)
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
            within = spread < bounds[k] / 3
            ok &= within
            print(f"{name} {k}: median {med:.4g} spread {spread:.3f} (a third of bound {bounds[k] / 3:.3f})"
                  f"{'' if within else '  <-- too wide'}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
