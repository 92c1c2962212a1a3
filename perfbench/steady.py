#!/usr/bin/env python3
"""Steadiness check: repeated runs, each with another seed, per workload.

    python3 perfbench/steady.py [--runs 10] [--first-seed 100] [--seconds 30]
                                [--workload W ...]

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles and the spread (quartile
distance over median) next to the metric's bound from ``BENCHMARK.json``.
The bounds there were set from this command's output; it exits 1 if any
spread is above its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst_ok = True
    for wl in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                return 1
            metrics = json.loads(lines[-1])["metrics"]
            for name, m in metrics.items():
                values[name].append(m["value"])
            print(f"{wl} seed {seed}: {lines[1]}\n  " +
                  " ".join(f"{k} {m['value']:.4g}" for k, m in metrics.items()), flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]["bound"]
            ok = spread <= bound
            worst_ok &= ok
            print(f"{wl:10s} {name:18s} median {med:12.6g} {bounds[name]['unit']:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f} bound {bound:5.2f}"
                  f"{'' if ok else '  OVER BOUND'}", flush=True)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
