#!/usr/bin/env python3
"""Benchmark for psolv: catalog sweeps and a one-shot S8 analysis.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-p2 --seed 1 --seconds 30 --trace 0

Each workload is a psolv command line, run in this process through
`psolv.cli.main` exactly as a user types it. The package is imported from
`src/` next to this directory. Every iteration starts from a fresh import,
so nothing computed in one iteration is reused by the next, just as two
separate CLI invocations share nothing.

With `--trace 0` the timed iterations run untraced and the end-to-end
metrics are printed. With `--trace 1` one untraced iteration is followed
by one traced iteration, and the per-layer metrics are printed. The last
line of standard output is always the JSON result; the line before it is
a record with the seed, sample counts and machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import SpeedClock
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    argv: tuple
    recipes: tuple | None  # None: the built-in catalog


# Why each workload is here is in BENCHMARK.json and README.md. The p = 3
# sweep is left out: its layer mix repeats sweep-p2 without the dominant
# group, and every workload lengthens each steadiness or comparison check.
WORKLOADS = {
    # lattice-heavy: wreath_cyclic:2:5 is about half the run
    "sweep-p2": Workload(
        ("catalog", "run", "--p", "2", "--format", "structured"), None),
    # extraspecial:5:plus at degree 125: permutation arithmetic, chain
    # rebuilds and repeated series calls
    "sweep-p5": Workload(
        ("catalog", "run", "--p", "5", "--format", "structured"), None),
    # one large non-solvable group: element-scan normalizer and conjugacy
    # classes, no lattice and no PF search
    "analyze-s8": Workload(
        ("analyze", "--recipe", "symmetric:8", "--p", "2",
         "--format", "structured"), ("symmetric:8",)),
}


def fail(message):
    sys.stderr.write(f"perfbench: error: {message}\n")
    sys.exit(1)


def drop_psolv():
    """Forget every psolv module and free the old copies now, so that
    garbage from one import neither lingers into nor is collected during
    the next timed interval."""
    for name in [m for m in sys.modules
                 if m == "psolv" or m.startswith("psolv.")]:
        del sys.modules[name]
    gc.collect()


def import_cli():
    cli = importlib.import_module("psolv.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"psolv was imported from {cli.__file__}, not from {SRC}")
    return cli


def recipes_of(workload):
    if workload.recipes is not None:
        return workload.recipes
    return sys.modules["psolv.catalog"].DEFAULT_CATALOG


def measure_setup(workload):
    """Import plus build_group of the workload's recipes; returns the
    start and end times."""
    drop_psolv()
    start = perf_counter()
    import_cli()
    build_group = sys.modules["psolv.catalog"].build_group
    for recipe in recipes_of(workload):
        build_group(recipe)
    return start, perf_counter()


def run_iteration(workload, seed, tracer=None):
    """One CLI invocation. Returns its start and end times, exit code,
    stdout text and the (start, end) of each battery_for_group call."""
    drop_psolv()
    cli = import_cli()
    if tracer is not None:
        tracer.install()
    battery = sys.modules["psolv.battery"]
    inner = battery.battery_for_group
    group_spans = []

    def timed_battery(*args, **kwargs):
        start = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            group_spans.append((start, perf_counter()))

    battery.battery_for_group = timed_battery
    argv = list(workload.argv) + ["--seed", str(seed)]
    out = io.StringIO()
    code = None
    with contextlib.redirect_stdout(out):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
        end = perf_counter()
    return start, end, code, out.getvalue(), group_spans


def group_digests(text):
    """sha256 of each group's reports, re-serialized canonically."""
    doc = json.loads(text)
    by_group = {}
    for report in doc["reports"]:
        by_group.setdefault(report["group_id"], []).append(report)
    return {gid: hashlib.sha256(json.dumps(
                reports, sort_keys=True, indent=2).encode()).hexdigest()
            for gid, reports in by_group.items()}, by_group


def check_output(reference, code, text):
    """Failed groups: missing, extra, differing from the reference digest,
    or carrying a finding. Returns (attempted, failed, output matches)."""
    expected = reference["groups"]
    try:
        digests, by_group = group_digests(text)
    except (ValueError, KeyError):
        return len(expected), len(expected), False
    failed = 0
    for gid in set(expected) | set(digests):
        findings = any(r["verdict"].get("is_finding")
                       for r in by_group.get(gid, ()))
        if digests.get(gid) != expected.get(gid) or findings:
            failed += 1
    same = (code == 0 and hashlib.sha256(text.encode()).hexdigest()
            == reference["output_sha256"])
    return len(set(expected) | set(digests)), failed, same


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def git_commit():
    """HEAD of the repository at ROOT, or None outside one (the search for
    a repository stops at ROOT, so no enclosing repository is read)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def layer_metrics(tracer, traced_wall, untraced_wall):
    tracer.fold_counts()
    calls, secs, own, totals = (tracer.calls, tracer.seconds,
                                tracer.self_seconds, tracer.totals)
    m = {
        "perm.mul_calls": calls["perm.__mul__"],
        "perm.inverse_calls": calls["perm.inverse"],
        "perm.is_identity_calls": calls["perm.is_identity"],
        "group.chain_builds": calls["group.chain_build"],
        "group.chain_build_s": secs["group.chain_build"],
        "group.chain_rebuild_ratio": tracer.ratio("group.chain"),
        "group.span_calls": calls["group.span"],
        "group.span_s": secs["group.span"],
        "group.enumerations": calls["group.enumerations"],
        "group.enum_max_order": totals["group.enum_max_order"],
        "group.contains_calls": calls["group.contains"],
        "subgroups.normal_subgroups_calls":
            calls["subgroups.normal_subgroups"],
        "subgroups.normal_subgroups_s": secs["subgroups.normal_subgroups"],
        "subgroups.normalizer_calls": calls["subgroups.normalizer"],
        "subgroups.normalizer_s": secs["subgroups.normalizer"],
        "subgroups.conjugacy_classes_s":
            secs["subgroups.conjugacy_classes"],
        "series.o_p_calls": calls["series.o_p"],
        "series.o_p_s": secs["series.o_p"],
        "series.sylow_calls": calls["series.sylow"],
        "series.sylow_s": secs["series.sylow"],
        "series.upper_p_series_calls": calls["series.upper_p_series"],
        "series.upper_p_series_s": secs["series.upper_p_series"],
        "series.repeat_ratio": tracer.ratio("series"),
        "filtrations.pf_search_calls":
            calls["filtrations.pf_embedded_search"],
        "filtrations.pf_search_nodes":
            totals["filtrations.pf_search_nodes"],
        "filtrations.pf_search_s": secs["filtrations.pf_embedded_search"],
        "catalog.build_group_s": secs["catalog.build_group"],
        "catalog.emit_report_s": secs["catalog.emit_report"],
        "catalog.output_bytes": totals["catalog.output_bytes"],
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for statement in ("analyze_group", "verify_main", "verify_thm6",
                      "verify_prop3", "verify_prop4", "verify_lemma8",
                      "check_O24_inclusion", "question7_scan",
                      "hall_higman_bound"):
        m[f"theorems.{statement}_s"] = secs[f"theorems.{statement}"]
    for layer in LAYERS[1:]:  # perm has counts, not spans
        m[f"{layer}.self_s"] = own[layer]
    return m


def declared_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "psolv" / "__init__.py").is_file():
        fail(f"no psolv package under {SRC}")
    sys.path.insert(0, str(SRC))
    units = declared_metrics(args.trace)
    try:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    except (OSError, ValueError, KeyError) as e:
        fail(f"no reference digests for {args.workload}: {e}")
    workload = WORKLOADS[args.workload]
    facts = machine_facts()

    clock = SpeedClock()
    setups, raw_setups = [], []
    walls, raw_walls, latencies, outputs = [], [], [], []

    def measured(start, end):
        """Reference seconds of an interval that has just ended."""
        clock.sample()
        return clock.reference_seconds(start, end)

    def iterate(tracer=None):
        start, end, code, text, groups = run_iteration(
            workload, args.seed, tracer)
        walls.append(measured(start, end))
        raw_walls.append(end - start)
        latencies.extend(clock.reference_seconds(a, b) for a, b in groups)
        if not groups:  # analyze: one command is one group
            latencies.append(walls[-1])
        outputs.append((code, text))

    with clock:
        for _ in range(SETUP_REPEATS):
            start, end = measure_setup(workload)
            setups.append(measured(start, end))
            raw_setups.append(end - start)
        begin = perf_counter()
        if args.trace:
            iterate()
            tracer = Tracer()
            iterate(tracer)
        else:
            while True:
                iterate()
                if perf_counter() - begin + max(raw_walls) > args.seconds:
                    break
    # before the output checks, whose JSON parsing is not psolv's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    correct = True
    for code, text in outputs:
        a, f, same = check_output(reference, code, text)
        attempted += a
        failed += f
        correct = correct and same and f == 0

    extra = {}
    if args.trace:
        metrics = layer_metrics(tracer, walls[1], walls[0])
        tracer.write_spans(SPAN_DIR / f"spans-{args.workload}.jsonl")
        extra["spans"] = tracer.span_count()
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "group_p50_ms": 1000 * statistics.median(latencies),
            "group_p75_ms": 1000 * percentile(latencies, 75),
        }

    if set(metrics) != set(units):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:>14.6g} {units[name]}")
    print(f"{'failed_ratio':36s} {failed / attempted:>14.6g} ratio")
    print(f"{'attempted':36s} {attempted:>14d} groups")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "iterations": len(walls), "walls_s": walls,
              "raw_walls_s": raw_walls, "setups_s": setups,
              "raw_setups_s": raw_setups, "group_samples": len(latencies),
              "speed": clock.speed(), "speed_samples": len(clock.costs),
              "failed_ratio": failed / attempted, "machine": facts, **extra}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
