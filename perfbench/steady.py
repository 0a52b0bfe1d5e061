#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py [--workloads sweep-p2,analyze-s8] [--runs 10]
        [--first-seed 1] [--trace 0|1]

Each run is a separate `perfbench/run.py` process with its own seed
(first-seed, first-seed + 1, ...) and BENCHMARK.json's run_seconds. For
every metric it prints the median, the quartiles and IQR / median, where
the IQR is the interquartile range from statistics.quantiles(values, n=4).
An end-to-end metric is marked "ok" when its IQR / median is below a third
of its bound in BENCHMARK.json.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    return median, q1, q3, spread


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            verdict = ""
            if name in bounds:
                ok = spread < bounds[name] / 3
                verdict = f"{'ok' if ok else 'WIDE'} (bound {bounds[name]})"
            print(f"  {name:36s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {verdict}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
