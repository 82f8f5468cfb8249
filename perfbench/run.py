#!/usr/bin/env python3
"""Builds the benchmark from source (first use) and runs one workload.

    python3 perfbench/run.py --workload docs_search --seed 1 --seconds 10 \
        --trace 0 [--smoke]

Run it from the repository root. The build goes to .bench_build/perfbench,
durable state to .bench_build/work, and with --trace 1 the span file to
.bench_build/spans/. The last line of stdout is the benchmark's JSON result;
the build's own output goes to stderr.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "dyndex_perfbench")


def build():
    """Configures once, then (re)builds the binary; serialised by a lock."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no dyndex sources next to perfbench/; "
                 "run from a repository checkout")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "dyndex_perfbench", "-j", "4"],
                       check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["docs_search", "graph_churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs through the same code and checks")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    work = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    if args.trace:
        spans = os.path.join(OUT, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        rc = subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
