#!/usr/bin/env python3
"""The benchmark's own test: both workloads at a small size, in seconds.

    python3 perfbench/smoke.py

Run it from the repository root. It runs each workload at the smoke size
through the same code and model checks as the full runs, at seeds 1 and 2
untraced and at seed 1 traced, and requires of every run: exit code 0, a
last stdout line holding exactly the keys correct / attempted / failed /
metrics, correct true, zero failed operations, and exactly the metrics
BENCHMARK.json lists with their units (end-to-end metrics untraced, all
above 0; per-layer metrics traced, plus a written span file). Last, it
copies BENCHMARK.json and perfbench/ alone into a scratch directory and
requires the command to fail there without printing a result. Exits 1 on
any failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def check_run(bench, workload, seed, trace, failures):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", SECONDS, "--trace", str(trace),
                              "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    name = f"{workload} seed {seed} trace {trace}"
    problems = []
    if out.returncode != 0:
        problems.append(f"exit code {out.returncode}: {out.stderr[-500:]}")
    else:
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"keys {sorted(result)}")
        if result.get("correct") is not True:
            problems.append("correct is not true")
        if result.get("failed") != 0 or result.get("attempted", 0) < 1:
            problems.append(f"failed {result.get('failed')} of "
                            f"{result.get('attempted')}")
        want = bench["per_layer" if trace else "end_to_end"]
        got = result.get("metrics", {})
        if sorted(got) != sorted(m["name"] for m in want):
            missing = {m["name"] for m in want} - set(got)
            extra = set(got) - {m["name"] for m in want}
            problems.append(f"metrics missing {sorted(missing)} "
                            f"extra {sorted(extra)}")
        for m in want:
            v = got.get(m["name"])
            if v is None:
                continue
            if v.get("unit") != m["unit"]:
                problems.append(f"{m['name']} unit {v.get('unit')}")
            if not trace and not v.get("value", 0) > 0:
                problems.append(f"{m['name']} = {v.get('value')}")
        if trace:
            spans = os.path.join(ROOT, ".bench_build", "spans",
                                 f"{workload}-seed{seed}.tsv")
            if not os.path.isfile(spans) or os.path.getsize(spans) == 0:
                problems.append(f"no span file {spans}")
    print(f"{'FAIL' if problems else 'ok  '} {name}"
          + "".join(f"\n     {p}" for p in problems), flush=True)
    failures += problems


def check_bare_checkout(bench, failures):
    """Only BENCHMARK.json and the benchmark's paths: must fail, no result."""
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"],
                              "--seed", "1", "--seconds", SECONDS,
                              "--trace", "0"]
    out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                         timeout=180)
    problems = []
    if out.returncode == 0:
        problems.append("exit code 0")
    if out.stdout.strip():
        problems.append(f"printed {out.stdout.strip()[-200:]}")
    shutil.rmtree(bare, ignore_errors=True)
    print(f"{'FAIL' if problems else 'ok  '} bare checkout fails"
          + "".join(f"\n     {p}" for p in problems), flush=True)
    failures += problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for w in bench["workloads"]:
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            check_run(bench, w["name"], seed, trace, failures)
    check_bare_checkout(bench, failures)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
