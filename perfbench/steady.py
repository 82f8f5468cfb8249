#!/usr/bin/env python3
"""Steadiness check: runs every workload at seeds 1-10 and reports spreads.

    python3 perfbench/steady.py [--trace]

Run it from the repository root. For every workload in BENCHMARK.json and
every end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and marks a
metric whose spread exceeds its bound in BENCHMARK.json ("OVER"), or a third
of it ("wide"). It also prints the share of failed operations per workload,
and the spread of the figures a run prints as "info" (printed, not gated).
With --trace it adds one traced run per workload on each of the first three
seeds, prints their per-layer metrics and the tracing overhead: the median
of the traced runs' end-to-end figures against the median of the same
seeds' untraced runs.
Exits 1 when a spread exceeds its bound or an operation failed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


SEEDS = list(range(1, 11))


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n"
                 f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    e2e = {m.group(1): float(m.group(2))
           for m in (re.match(r"e2e (\S+)=(\S+) ", l) for l in lines) if m}
    info = {m.group(1): float(m.group(2))
            for m in (re.match(r"info (\S+)=(\S+) ", l) for l in lines) if m}
    return result, e2e, info


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bad = False
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        extra = {}  # printed, not gated
        attempted = failed = 0
        for seed in SEEDS:
            result, _, info = run(bench, w, seed, trace=False)
            for name, v in info.items():
                extra.setdefault(name, []).append(v)
            attempted += result["attempted"]
            failed += result["failed"]
            bad |= not result["correct"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"  {w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"{w}: {len(SEEDS)} runs, failed {failed}/{attempted} ops")
        bad |= failed > 0
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for m in bench["end_to_end"]:
            med, q1, q3, s = spread(values[m["name"]])
            flag = ""
            if s > m["bound"]:
                flag, bad = "OVER", True
            elif s > m["bound"] / 3:
                flag = "wide"
            print(f"  {m['name']:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{s:>9.3f}{m['bound']:>7.2f} {m['unit']} {flag}")
        for name, v in extra.items():
            med, q1, q3, s = spread(v)
            print(f"  {name:<18}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{s:>9.3f}{'-':>7} (not gated)")
        if args.trace:
            traced = {}
            for seed in SEEDS[:3]:
                result, e2e, _ = run(bench, w, seed, trace=True)
                print(f"  traced run (seed {seed}): correct="
                      f"{result['correct']} failed={result['failed']}/"
                      f"{result['attempted']}")
                for name, m in result["metrics"].items():
                    print(f"    {name} = {m['value']:.6g} {m['unit']}")
                for name, v in e2e.items():
                    traced.setdefault(name, []).append(v)
            print(f"  tracing overhead (median of traced seeds {SEEDS[:3]} /"
                  " median of the same seeds untraced - 1):")
            for name, v in traced.items():
                base = statistics.median(values[name][:3])
                print(f"    {name:<18}{statistics.median(v) / base - 1:+.3f}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
