#!/usr/bin/env python3
"""Build and run the Genie benchmark (see perfbench/BENCHMARK.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload point-dma --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-expected

genie_perf is a CMake package in perfbench/ that builds the Genie
libraries from src/. It is configured and built (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, before
every run; an up-to-date build costs a second or two. Build output goes to
stderr, so the last line of stdout is genie_perf's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target", target]]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(3)
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()

    expected = os.path.join(HERE, "expected.txt")
    out = os.path.join(build_dir(), "out")

    if args.self_test:
        cmd = [build("genie_perf_selftest"), "--expected", expected,
               "--out", out]
    elif args.record_expected:
        cmd = [build("genie_perf"), "--record-expected", expected]
    else:
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        cmd = [build("genie_perf"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--expected", expected,
               "--out", out]
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
