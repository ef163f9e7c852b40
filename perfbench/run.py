#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload cell_warm|grid_edit|paper_batch \
        --seed N --seconds S --trace 0|1

The first run configures and builds the library and the benchmark
program (perfbench/CMakeLists.txt, Release) into .bench_build/ at the
repository root; later runs only rebuild what changed.  Build output goes to
stderr; the program's report lines and its one-line JSON result go to
stdout, and its exit code is passed through (non-zero on a failed
correctness check or a failed build).
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("cell_warm", "grid_edit", "paper_batch")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    # Keep compiler temporaries inside the checkout as well.
    env = dict(os.environ, TMPDIR=os.path.join(build, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "vsbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, cwd=root, env=env,
                          stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 1

    command = [os.path.join(build, "vsbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
