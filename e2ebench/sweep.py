#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints, per workload and
metric, the median, the quartiles and the interquartile spread as a share
of the median, beside the bound in BENCHMARK.json.

    python3 e2ebench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1]

Run it from the repository root. Each run is one process, exactly as
BENCHMARK.json's command runs it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        shares = set()
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect\n{out.stderr[-2000:]}")
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)
        print(f"## {workload}  failed/attempted: {sorted(shares)}")
        print(f"{'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
        for name, (unit, vs) in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"{name:34} {unit:6} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6}")
        print()


if __name__ == "__main__":
    main()
